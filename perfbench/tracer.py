"""In-memory span tracer for the benchmark's traced run.

While installed, every public function of the qkdsim layer modules, and the
public methods of the classes named in ``CLASSES``, is replaced by a timing
wrapper in every qkdsim module that binds it.  Functions listed in ``SPANS``
are coarse steps, called a few times per session: each call is recorded as
a span (name, start, end, parent span, session id).  All others run per
photon, per key bit or per variate, so their calls are pooled per enclosing
span (calls, total time, self time) instead of recorded one by one.

A call's self time is its duration minus the time of the wrapped calls made
inside it.  Each self time goes to one per-layer bucket (``bucket_of``), so
the buckets add up to the traced wall time of the operations; what the
operations spend outside any layer function is reported as unattributed.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("rng", "photons", "transcript", "eavesdrop", "three_state", "bb84", "analysis", "harness")
CLASSES = {"rng": ("RandomSource",), "eavesdrop": ("ChannelTap",), "transcript": ("Transcript",)}
ROOT = "bench.op"  # one benchmark operation; its session id is the operation's index
SPANS = {
    ROOT,
    "harness.run",
    "harness.run_trial",
    "harness.attack_sweep",
    "harness.report_document",
    "harness.aggregate",
    "harness.to_json",
    "harness.sweep_to_csv",
    "three_state.three_state_run",
    "three_state.confirm",
    "three_state.authenticate",
    "bb84.bb84_run",
    "bb84.parity_certify",
    "eavesdrop.ChannelTap.__init__",
    "transcript.Transcript.announce_filters",
    "transcript.Transcript.announce_kept",
    "transcript.Transcript.parity_query",
    "transcript.Transcript.parity_response",
    "transcript.Transcript.to_jsonable",
    "analysis.auth_failure_probability",
    "analysis.key_error_probability",
    "analysis.model_auth_failure_rate",
}
_BUCKETS = {
    "three_state.confirm": "three_state.confirm_s",
    "bb84.parity_certify": "bb84.certify_s",
    "harness.run_trial": "harness.run_trial_self_s",
    "harness.outcome_label": "harness.run_trial_self_s",
    "harness.aggregate": "harness.aggregate_s",
    "harness.report_document": "harness.aggregate_s",
    "harness.to_json": "harness.serialize_s",
    "harness.sweep_to_csv": "harness.serialize_s",
}
_LAYER_BUCKETS = {
    "rng": "rng.busy_s",
    "photons": "photons.busy_s",
    "eavesdrop": "eavesdrop.busy_s",
    "three_state": "three_state.self_s",
    "bb84": "bb84.self_s",
    "transcript": "transcript.busy_s",
    "harness": "harness.other_s",
    "analysis": "analysis.oracle_s",
}
TIME_BUCKETS = tuple(dict.fromkeys(list(_LAYER_BUCKETS.values()) + list(_BUCKETS.values())))


def bucket_of(name: str) -> str:
    if name == ROOT:
        return "trace.unattributed_s"
    return _BUCKETS.get(name) or _LAYER_BUCKETS[name.split(".", 1)[0]]


class _CountingGenerator:
    """A numpy Generator that counts the doubles drawn through ``random``."""

    def __init__(self, gen, counts: Counter) -> None:
        self._gen = gen
        self._counts = counts

    def random(self, size=None, *args, **kwargs):
        self._counts["rng.doubles_drawn"] += 1 if size is None else int(np.prod(size))
        return self._gen.random(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class _Delegate:
    """Attribute view of ``target`` with some names replaced."""

    def __init__(self, target, **replaced) -> None:
        self._target = target
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, name, start_ns, end_ns, parent, session, self_ns]
        self.pooled: dict[tuple, list] = {}  # (owner span, name) -> [calls, total_ns, self_ns]
        self.counts: Counter = Counter()
        self.session = None
        self._stack: list[list] = [[0]]  # per active call: [child_ns]
        self._owners: list = [None]  # enclosing span ids
        self._certify: list[dict] = []  # open parity_certify calls
        self._taps: list = []
        self._patches: list[tuple] = []
        self._wrappers = self._build_wrappers()

    # -- wrapping --------------------------------------------------------

    def _build_wrappers(self) -> dict:
        """Map each original function to its wrapper, keyed for patching."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"qkdsim.{layer}"]
            for attr, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(module, cls_name, None)
                if cls is None:
                    continue
                for attr, member in vars(cls).items():
                    if attr.startswith("_") and attr not in ("__init__", "__call__"):
                        continue
                    name = f"{layer}.{cls_name}.{attr}"
                    if inspect.isfunction(member):
                        wrappers[(cls, attr)] = self._wrap(name, member)
                    elif isinstance(member, classmethod):
                        wrappers[(cls, attr)] = classmethod(self._wrap(name, member.__func__))
        return wrappers

    def install(self) -> None:
        for key, wrapper in self._wrappers.items():
            if isinstance(key, tuple):
                cls, attr = key
                self._patches.append((cls, attr, vars(cls)[attr]))
                setattr(cls, attr, wrapper)
        for name, module in list(sys.modules.items()):
            if name == "qkdsim" or name.startswith("qkdsim."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in self._wrappers:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, self._wrappers[value])
        rng = sys.modules["qkdsim.rng"]
        if getattr(rng, "np", None) is np:
            counts = self.counts
            shim = _Delegate(
                np,
                random=_Delegate(
                    np.random,
                    Generator=lambda bitgen: _CountingGenerator(np.random.Generator(bitgen), counts),
                ),
            )
            self._patches.append((rng, "np", np))
            rng.np = shim

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def _wrap(self, name: str, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        stack, owners, clock = self._stack, self._owners, time.perf_counter_ns
        tracer = self

        if name in SPANS:
            spans = self.spans

            def span(*args, **kwargs):
                if before is not None:
                    before(tracer, args)
                record = [len(spans), name, 0, 0, owners[-1], tracer.session, 0]
                spans.append(record)
                owners.append(record[0])
                frame = [0]
                stack.append(frame)
                record[2] = start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[3] = end = clock()
                    stack.pop()
                    owners.pop()
                    stack[-1][0] += end - start
                    record[6] = end - start - frame[0]
                if after is not None:
                    after(tracer, args, result)
                return result

            return span

        pooled = self.pooled

        def call(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                key = (owners[-1], name)
                entry = pooled.get(key)
                if entry is None:
                    pooled[key] = [1, elapsed, elapsed - frame[0]]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[0]
            if after is not None:
                after(tracer, args, result)
            return result

        return call

    def root(self, session, fn, *args):
        """Run one benchmark operation as a root span; returns its result."""
        self.session = session
        return self._wrap(ROOT, fn)(*args)

    # -- derived metrics -------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(entry[0] for (_, n), entry in self.pooled.items() if n == name)

    def layer_metrics(self) -> dict[str, float]:
        seconds = dict.fromkeys(TIME_BUCKETS + ("trace.unattributed_s",), 0)
        for record in self.spans:
            seconds[bucket_of(record[1])] += record[6]
        for (_, name), (_, _, self_ns) in self.pooled.items():
            seconds[bucket_of(name)] += self_ns
        out = {bucket: ns / 1e9 for bucket, ns in seconds.items()}
        variates = self.calls("rng.RandomSource.uniform")
        drawn = self.counts["rng.doubles_drawn"]
        out.update(
            {
                "rng.streams": self.calls("rng.RandomSource.__init__"),
                "rng.variates_used": variates,
                "rng.use_ratio": variates / drawn if drawn else 0.0,
                "photons.measurements": self.calls("photons.measure"),
                "eavesdrop.tap_calls": self.calls("eavesdrop.ChannelTap.__call__"),
                "eavesdrop.intercepted": sum(getattr(t, "photons_intercepted", 0) for t in self._taps),
                "transcript.entries": self.calls("transcript.Transcript.append"),
            }
        )
        for counter in (
            "three_state.key_bits",
            "three_state.auth_positions",
            "bb84.certify_variates",
            "bb84.subset_redraws",
            "bb84.sifted_bits",
            "bb84.final_key_bits",
            "transcript.positions",
            "harness.report_bytes",
        ):
            out[counter] = self.counts[counter]
        out["trace.wall_s"] = sum(r[3] - r[2] for r in self.spans if r[1] == ROOT) / 1e9
        return out

    def dump(self, path) -> None:
        """Write spans, then pooled calls, as JSON lines."""
        span_keys = ("id", "name", "start_ns", "end_ns", "parent", "session", "self_ns")
        with open(path, "w") as f:
            for record in self.spans:
                f.write(json.dumps(dict(zip(span_keys, record))) + "\n")
            for (owner, name), (calls, total_ns, self_ns) in self.pooled.items():
                pooled = {"owner": owner, "name": name, "calls": calls, "total_ns": total_ns, "self_ns": self_ns}
                f.write(json.dumps(pooled) + "\n")


# -- counters read at layer boundaries ----------------------------------


def _uniform_calls_under(tracer: Tracer, span_id) -> int:
    entry = tracer.pooled.get((span_id, "rng.RandomSource.uniform"))
    return entry[0] if entry else 0


def _certify_enter(tracer: Tracer, args) -> None:
    tracer._certify.append({"span": len(tracer.spans), "bits": len(args[0]), "marks": []})


def _certify_exit(tracer: Tracer, args, result) -> None:
    open_call = tracer._certify.pop()
    used = _uniform_calls_under(tracer, open_call["span"])
    tracer.counts["bb84.certify_variates"] += used
    tracer.counts["bb84.final_key_bits"] += result.final_key_length
    # Each subset draw takes one variate per surviving position, and one
    # position is discarded per round, so a round's variates divided by its
    # survivors is its number of draws; every draw past the first was a
    # redraw of an empty subset.
    previous = 0
    for round_index, mark in enumerate(open_call["marks"]):
        survivors = open_call["bits"] - round_index
        spent, previous = mark - previous, mark
        if survivors > 0 and spent % survivors == 0 and spent > survivors:
            tracer.counts["bb84.subset_redraws"] += spent // survivors - 1


def _parity_query(tracer: Tracer, args) -> None:
    if tracer._certify:
        open_call = tracer._certify[-1]
        open_call["marks"].append(_uniform_calls_under(tracer, open_call["span"]))


def _append(tracer: Tracer, args) -> None:
    entry = args[1]
    tracer.counts["transcript.positions"] += sum(
        len(v) for v in entry.payload.values() if isinstance(v, list)
    )


def _three_state_run(tracer: Tracer, args, result) -> None:
    tracer.counts["three_state.key_bits"] += len(result.key_material.key_bits)
    tracer.counts["three_state.auth_positions"] += len(result.key_material.auth_positions)


def _bb84_run(tracer: Tracer, args, result) -> None:
    tracer.counts["bb84.sifted_bits"] += len(result.sift.kept_indices)


def _report_bytes(tracer: Tracer, args, result) -> None:
    tracer.counts["harness.report_bytes"] += len(result)


def _tap_init(tracer: Tracer, args, result) -> None:
    tracer._taps.append(args[0])


_BEFORE = {
    "bb84.parity_certify": _certify_enter,
    "transcript.Transcript.parity_query": _parity_query,
    "transcript.Transcript.append": _append,
}
_AFTER = {
    "bb84.parity_certify": _certify_exit,
    "three_state.three_state_run": _three_state_run,
    "bb84.bb84_run": _bb84_run,
    "harness.to_json": _report_bytes,
    "harness.sweep_to_csv": _report_bytes,
    "eavesdrop.ChannelTap.__init__": _tap_init,
}
