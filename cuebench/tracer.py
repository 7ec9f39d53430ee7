"""Span tracing for the benchmark's traced run.

``Tracer.install`` wraps every public function of the cuelab modules, and
rebinds the wrapper under each name that refers to the original: in the
defining module, in every other cuelab module that imported it, in the
package namespace and in the CLI's runner table.  A call records one span
(id, parent id, name, start, end, exception type) in memory; ``write``
saves them when the run ends.  ``layer_metrics`` turns one round's spans
into the per-layer figures the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager

LAYERS = (
    "cli",
    "experiments",
    "rng",
    "sampling",
    "spectra",
    "specfun",
    "ensembles",
    "carrier",
    "results",
)

COMMANDS = ("fraction", "carrier", "moments", "clt", "oscillation", "tails", "gaps")

# name -> unit, in the order the benchmark prints them.
PER_LAYER = {
    "cli.import_s": "s",
    **{f"cli.{c}_s": "s" for c in COMMANDS},
    "experiments.pools_started": "count",
    "experiments.pool_s": "s",
    "experiments.self_s": "s",
    "rng.generator_calls": "count",
    "rng.generator_us": "us",
    "sampling.haar_reflection_chain_us": "us",
    "sampling.haar_unitary_us": "us",
    "sampling.haar_special_unitary_us": "us",
    "spectra.eigenangles_us": "us",
    "spectra.log_z_from_chain_us": "us",
    "spectra.log_z_us": "us",
    "spectra.log_z_calls": "count",
    "spectra.singular_redraws": "count",
    "ensembles.sign_changes_us": "us",
    "ensembles.sign_changes_calls": "count",
    "ensembles.g_evals_per_call": "count/call",
    "ensembles.roots_oracle_us": "us",
    "ensembles.winding_us": "us",
    "ensembles.winding_attempts_per_call": "count/call",
    "ensembles.winding_failed": "count",
    "ensembles.degenerate": "count",
    "carrier.subdivision_us": "us",
    "carrier.exceptional_mask_us": "us",
    "carrier.exceptional_mask_calls": "count",
    "carrier.carrier_wave_index_calls": "count",
    "carrier.narrow_gap_count_us": "us",
    "specfun.joint_mgf_rhs_us": "us",
    "specfun.oscillation_variance_exact_us": "us",
    "specfun.expected_narrow_pairs_us": "us",
    "results.emit_us": "us",
    "results.read_record_us": "us",
    "trace.round_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, error)
        self._stack = []
        self._next = 0
        self._undo = []

    def begin(self, name: str) -> list:
        sid = self._next
        self._next += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, parent, name, time.perf_counter(), None]
        self._stack.append(frame)
        return frame

    def end(self, frame: list, error: str | None = None) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[2]} closed out of order")
        self.spans.append((frame[0], frame[1], frame[2], frame[3], end, error))

    @contextmanager
    def span(self, name: str):
        frame = self.begin(name)
        error = None
        try:
            yield
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            self.end(frame, error)

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.begin(name)
            error = None
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                tracer.end(frame, error)

        return traced

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of ``package``."""
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        runners = modules["cli"]._RUNNERS
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                original = getattr(module, attr)
                if not inspect.isfunction(original) or original.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", original)
                for namespace in namespaces:
                    if getattr(namespace, attr, None) is original:
                        self._rebind(namespace, attr, wrapper)
                for command, runner in list(runners.items()):
                    if runner is original:
                        self._undo.append((runners, command, original))
                        runners[command] = wrapper
        stream = modules["rng"].RngStream
        self._rebind(stream, "generator", self.wrap("rng.generator", stream.__dict__["generator"]))
        self._rebind(modules["experiments"], "ProcessPoolExecutor",
                     self._pool_class(modules["experiments"].ProcessPoolExecutor))

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            """The executor, with its lifetime recorded as one span."""

            def __init__(self, *args, **kwargs):
                self._span = tracer.begin("experiments.pool")
                try:
                    super().__init__(*args, **kwargs)
                except Exception:
                    tracer.end(self._span, "init")
                    raise

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if self._span is not None:
                        tracer.end(self._span)
                        self._span = None

        return TracedPool

    @contextmanager
    def installed(self, package):
        self.install(package)
        try:
            yield self
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,parent,name,start_s,end_s,error\n")
            for sid, parent, name, start, end, error in self.spans:
                handle.write(f"{sid},{parent},{name},{start!r},{end!r},{error or ''}\n")


def layer_metrics(spans) -> dict:
    """Per-layer figures of one round's spans (totals over the round)."""
    ids = {s[0] for s in spans}
    total = {}
    calls = {}
    errors = {}
    child_time = {}
    for sid, parent, name, start, end, error in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if error:
            errors[(name, error)] = errors.get((name, error), 0) + 1
        if parent in ids:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    def us(name):
        return total.get(name, 0.0) * 1e6

    def ratio(num, den):
        return calls.get(num, 0) / calls[den] if calls.get(den) else 0.0

    runner_self = sum(
        (end - start) - child_time.get(sid, 0.0)
        for sid, _, name, start, end, _ in spans
        if name.startswith("experiments.run_")
    )
    out = {f"cli.{c}_s": total.get(f"cli.{c}", 0.0) for c in COMMANDS}
    out.update({
        "experiments.pools_started": calls.get("experiments.pool", 0),
        "experiments.pool_s": total.get("experiments.pool", 0.0),
        "experiments.self_s": runner_self,
        "rng.generator_calls": calls.get("rng.generator", 0),
        "rng.generator_us": us("rng.generator"),
        "sampling.haar_reflection_chain_us": us("sampling.haar_reflection_chain"),
        "sampling.haar_unitary_us": us("sampling.haar_unitary"),
        "sampling.haar_special_unitary_us": us("sampling.haar_special_unitary"),
        "spectra.eigenangles_us": us("spectra.eigenangles"),
        "spectra.log_z_from_chain_us": us("spectra.log_z_from_chain"),
        "spectra.log_z_us": us("spectra.log_z"),
        "spectra.log_z_calls": calls.get("spectra.log_z", 0),
        "spectra.singular_redraws": errors.get(("spectra.log_z", "SingularPointError"), 0),
        "ensembles.sign_changes_us": us("ensembles.sign_changes"),
        "ensembles.sign_changes_calls": calls.get("ensembles.sign_changes", 0),
        "ensembles.g_evals_per_call": ratio("ensembles.real_rotation", "ensembles.sign_changes"),
        "ensembles.roots_oracle_us": us("ensembles.roots_oracle"),
        "ensembles.winding_us": us("ensembles.winding_inside_count"),
        "ensembles.winding_attempts_per_call": ratio(
            "ensembles.evaluate_combination", "ensembles.winding_inside_count"
        ),
        "ensembles.winding_failed": errors.get(
            ("ensembles.winding_inside_count", "IllConditionedContourError"), 0
        ),
        "ensembles.degenerate": errors.get(
            ("ensembles.sign_changes", "DegenerateCombinationError"), 0
        ),
        "carrier.subdivision_us": us("carrier.subdivision"),
        "carrier.exceptional_mask_us": us("carrier.exceptional_mask"),
        "carrier.exceptional_mask_calls": calls.get("carrier.exceptional_mask", 0),
        "carrier.carrier_wave_index_calls": calls.get("carrier.carrier_wave_index", 0),
        "carrier.narrow_gap_count_us": us("carrier.narrow_gap_count"),
        "specfun.joint_mgf_rhs_us": us("specfun.joint_mgf_rhs"),
        "specfun.oscillation_variance_exact_us": us("specfun.oscillation_variance_exact"),
        "specfun.expected_narrow_pairs_us": us("specfun.expected_narrow_pairs"),
        "results.emit_us": us("results.emit"),
        "results.read_record_us": us("results.read_record"),
    })
    return out
