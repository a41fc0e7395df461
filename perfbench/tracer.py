"""Per-layer tracing of `gpesoliton` from outside the package.

`Tracer.installed()` replaces each function in TARGETS with a timing wrapper
wherever a `gpesoliton` module binds it (so `relax` is wrapped in `cli` and
`collapse` as well as in `groundstate`), and restores the originals on exit.
The package source is never edited.

Coarse calls are recorded as spans (id, name, start, end, parent) kept in
memory until `write()`.  Hot calls -- the stencil, the functional gradient and
the tridiagonal solve -- are only counted and timed.  Every wrapped call adds
its duration to its caller's child time, which gives each layer's self time.
A target missing from the package is skipped and reported by `missing`.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter


def _relax_counts(args, kwargs, res):
    return {"iterations": res.iterations,
            "unresolved": int(not (res.converged or res.collapsed))}


def _threshold_counts(args, kwargs, res):
    return {"probes": len(res.trials),
            "probe_iterations": sum(t.iterations for t in res.trials),
            "resolved": sum(bool(t.resolved) for t in res.trials)}


def _propagate_counts(args, kwargs, res):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[4]
    return {"steps": int(round(cfg.t_final / cfg.dt))}


def _file_bytes(args, kwargs, res):
    return {"bytes": Path(args[0]).stat().st_size}


def _stencil_bytes(args, kwargs, res):
    # computed from array sizes: the field read plus the result written
    return {"bytes_computed": args[1].nbytes + res.nbytes}


# (layer, module, attribute, kind, counter); "Class.method" patches a method.
TARGETS = (
    ("cli.main", "gpesoliton.cli", "main", "span", None),
    ("collapse.find_threshold", "gpesoliton.collapse", "find_threshold", "span",
     _threshold_counts),
    ("groundstate.relax", "gpesoliton.groundstate", "relax", "span", _relax_counts),
    ("dynamics.propagate", "gpesoliton.dynamics", "propagate", "span", _propagate_counts),
    ("observables.moments", "gpesoliton.observables", "moments", "span", None),
    ("energy.hamiltonian", "gpesoliton.energy", "hamiltonian", "span", None),
    ("cli.write_csv", "gpesoliton.cli", "write_csv", "span", _file_bytes),
    ("cli.write_state_csv", "gpesoliton.cli", "write_state_csv", "span", None),
    ("grid.laplacian", "gpesoliton.grid", "Grid.laplacian", "hot", _stencil_bytes),
    ("energy.gradient", "gpesoliton.energy", "gradient", "hot", None),
    ("dynamics.tridiag", "gpesoliton.dynamics", "solve_banded", "hot", None),
)


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    child_s: float = 0.0
    counts: Counter = field(default_factory=Counter)

    @property
    def self_s(self) -> float:
        return self.s - self.child_s


class Tracer:
    def __init__(self):
        self.stats = {name: Stat() for name, *_ in TARGETS}
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._frames: list[list[float]] = []  # child time of each open wrapped call
        self._open: list[int] = []            # ids of the open spans
        self._origin = perf_counter()

    def _wrap(self, name, fn, kind, counter):
        stat, frames, spans, open_ids = self.stats[name], self._frames, self.spans, self._open
        origin = self._origin

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if kind == "span":
                span_id = len(spans)
                spans.append(None)
                parent = open_ids[-1] if open_ids else None
                open_ids.append(span_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                frames.pop()
                if frames:
                    frames[-1][0] += t1 - t0
                stat.calls += 1
                stat.s += t1 - t0
                stat.child_s += frame[0]
                if kind == "span":
                    open_ids.pop()
                    spans[span_id] = {"id": span_id, "name": name, "start": t0 - origin,
                                      "end": t1 - origin, "parent": parent}
            if counter is not None:
                stat.counts.update(counter(args, kwargs, result))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []  # (owner, attribute, original)
        self.missing = []
        try:
            for name, modname, attr, kind, counter in TARGETS:
                try:
                    module = importlib.import_module(modname)
                except ImportError:
                    self.missing.append(name)
                    continue
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name, None)
                    if cls is None or meth not in vars(cls):
                        self.missing.append(name)
                        continue
                    saved.append((cls, meth, vars(cls)[meth]))
                    setattr(cls, meth, self._wrap(name, vars(cls)[meth], kind, counter))
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapped = self._wrap(name, original, kind, counter)
                for modkey, mod in list(sys.modules.items()):
                    if modkey != "gpesoliton" and not modkey.startswith("gpesoliton."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, key, original))
                            setattr(mod, key, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def observation_s(self) -> float:
        """Time spent in moments/hamiltonian called directly by propagate."""
        names = {s["id"]: s["name"] for s in self.spans}
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] in ("observables.moments", "energy.hamiltonian")
                   and s["parent"] is not None
                   and names[s["parent"]] == "dynamics.propagate")

    def layer_metrics(self, n_calls: int, overhead_frac: float) -> dict:
        """Per-layer metrics, each averaged over `n_calls` traced CLI calls."""
        st = self.stats
        relax, thr = st["groundstate.relax"], st["collapse.find_threshold"]
        prop = st["dynamics.propagate"]
        iters, probes, steps = (relax.counts["iterations"], thr.counts["probes"],
                                prop.counts["steps"])
        per = 1.0 / n_calls
        m = {
            "groundstate.relax.calls": (relax.calls * per, "count"),
            "groundstate.relax.iterations": (iters * per, "count"),
            "groundstate.relax.s": (relax.s * per, "s"),
            "groundstate.relax.us_per_iter": (1e6 * relax.s / iters if iters else 0.0, "us"),
            "groundstate.relax.unresolved": (relax.counts["unresolved"] * per, "count"),
            "collapse.find_threshold.s": (thr.s * per, "s"),
            "collapse.probes": (probes * per, "count"),
            "collapse.iters_per_probe": (
                thr.counts["probe_iterations"] / probes if probes else 0.0, "count"),
            "collapse.resolved_ratio": (
                thr.counts["resolved"] / probes if probes else 0.0, "ratio"),
            "dynamics.propagate.calls": (prop.calls * per, "count"),
            "dynamics.propagate.s": (prop.s * per, "s"),
            "dynamics.steps": (steps * per, "count"),
            "dynamics.us_per_step": (
                1e6 * (prop.s - self.observation_s()) / steps if steps else 0.0, "us"),
            "grid.laplacian.bytes_computed": (
                st["grid.laplacian"].counts["bytes_computed"] * per, "B"),
            "cli.write_csv.bytes": (st["cli.write_csv"].counts["bytes"] * per, "B"),
            "cli.write_state_csv.s": (st["cli.write_state_csv"].s * per, "s"),
            "trace.overhead_frac": (overhead_frac, "ratio"),
        }
        for name in ("grid.laplacian", "energy.gradient", "dynamics.tridiag",
                     "observables.moments", "energy.hamiltonian", "cli.write_csv"):
            m[f"{name}.calls"] = (st[name].calls * per, "count")
            m[f"{name}.s"] = (st[name].s * per, "s")
        return {k: {"value": v, "unit": u} for k, (v, u) in sorted(m.items())}

    def self_time_table(self) -> str:
        wall = self.stats["cli.main"].s or 1.0
        lines = [f"{'layer':<26}{'calls':>10}{'total_s':>12}{'self_s':>12}{'self%':>8}"]
        for name, stat in sorted(self.stats.items(), key=lambda kv: -kv[1].self_s):
            lines.append(f"{name:<26}{stat.calls:>10}{stat.s:>12.4f}{stat.self_s:>12.4f}"
                         f"{100.0 * stat.self_s / wall:>7.1f}%")
        return "\n".join(lines)

    def write(self, path: Path, header: dict):
        """Write the spans and aggregates as JSON, with `header` on top."""
        doc = dict(header)
        doc["aggregates"] = {name: {"calls": s.calls, "s": s.s, "self_s": s.self_s,
                                    **dict(s.counts)} for name, s in self.stats.items()}
        doc["missing_targets"] = self.missing
        doc["spans"] = self.spans
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n")
