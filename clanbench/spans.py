"""Spans around calls into the package's public functions, recorded from
outside the package.

``Tracer.install`` rebinds every name under which a diii_clans module holds
a traced function (``from .x import f`` copies included, and tuples such as
``verify.CHECKS``) to a wrapper that records a span; ``uninstall`` puts the
originals back. Calls made inside the package therefore nest as child spans.
Spans stay in memory, in flat arrays, until ``dump`` writes them out.
"""

from __future__ import annotations

import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

#: Traced functions, by module; a dotted entry is a method of a class.
TARGETS = {
    "clans": ("parse_diii",),
    "enumeration": ("enumerate_diii", "count_formula", "count_recurrence"),
    "weak_order": (
        "clan_length",
        "apply_reflection",
        "weak_order_poset",
        "WeakOrderPoset.to_json_dict",
        "WeakOrderPoset.to_dot",
        "rank_polynomial",
        "rank_poly_recurrence",
    ),
    "sects": ("sects", "big_sect", "clan_to_pfpf", "pfpf_to_clan"),
    "pyramids": (
        "clan_to_pyramid",
        "pyramid_to_clan",
        "pyramid_to_placement",
        "placement_to_clan",
        "rotate_placement",
        "pyramid_to_partition_pair",
        "partition_pair_to_pyramid",
    ),
    "delannoy": ("clan_to_path", "validate_path", "path_to_clan"),
    "flags": (
        "representative_matrix",
        "verify_special_orthogonal",
        "exact_determinant",
        "intersection_parity",
    ),
    "verify": (
        "check_counting",
        "check_rank_polynomials",
        "check_weak_order",
        "check_sects",
        "check_rooks",
        "check_partition_pairs",
        "check_delannoy",
        "check_flags",
    ),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)
#: The root span of one benchmark operation.
OP = "op"
#: Its self time is the dense form product, apart from its determinant child.
SO = "flags.verify_special_orthogonal"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.trace_ids = array("q")
        self.parents = array("q")
        self.kinds = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.trace_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._paused = False

    def _kind(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        sid = len(self.starts)
        self.trace_ids.append(self.trace_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.kinds.append(self._kind(name))
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return traced

    @contextmanager
    def paused(self):
        """Calls made inside this block record no spans."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.startswith("diii_clans.")]
        for mod_name, fns in TARGETS.items():
            home = sys.modules[f"diii_clans.{mod_name}"]
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, attr = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    self._rebind(cls, attr, self.wrap(name, cls.__dict__[attr]))
                    continue
                original = getattr(home, fn_name)
                wrapper = self.wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, wrapper)
                        elif isinstance(value, tuple) and any(v is original for v in value):
                            self._rebind(
                                mod, key, tuple(wrapper if v is original else v for v in value)
                            )

    def _rebind(self, owner, key: str, value) -> None:
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, value = self._saved.pop()
            setattr(owner, key, value)

    def export(self) -> dict:
        return {
            "names": self.names,
            "kind": self.kinds.tolist(),
            "parent": self.parents.tolist(),
            "start": self.starts.tolist(),
            "end": self.ends.tolist(),
        }

    def merge(self, data: dict) -> None:
        """Append spans exported by a child process under the open span."""
        base = len(self.starts)
        root = self._stack[-1] if self._stack else -1
        kinds = [self._kind(name) for name in data["names"]]
        for kind, parent, start, end in zip(
            data["kind"], data["parent"], data["start"], data["end"]
        ):
            self.trace_ids.append(self.trace_id)
            self.parents.append(root if parent < 0 else base + parent)
            self.kinds.append(kinds[kind])
            self.starts.append(start)
            self.ends.append(end)

    def metrics(self) -> dict[str, float]:
        """Per span name: calls and inclusive ms per call; per module: the
        share of operation time spent in its outermost spans."""
        modules = list(TARGETS)
        n_spans = len(self.starts)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        total = dict.fromkeys(SPAN_NAMES, 0.0)
        child_time = [0.0] * n_spans
        masks = [0] * n_spans
        module_time = dict.fromkeys(modules, 0.0)
        op_time = 0.0
        op_calls = 0
        for sid in range(n_spans):
            name = self.names[self.kinds[sid]]
            duration = self.ends[sid] - self.starts[sid]
            parent = self.parents[sid]
            if parent >= 0:
                child_time[parent] += duration
            if name == OP:
                op_time += duration
                op_calls += 1
                continue
            calls[name] += 1
            total[name] += duration
            module = name.split(".")[0]
            bit = 1 << modules.index(module)
            above = masks[parent] if parent >= 0 else 0
            masks[sid] = above | bit
            if not above & bit:
                module_time[module] += duration
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.ms_per_call"] = 1e3 * total[name] / calls[name] if calls[name] else 0.0
        out[f"{OP}.calls"] = op_calls
        out[f"{OP}.ms_per_call"] = 1e3 * op_time / op_calls if op_calls else 0.0
        so_spans = [sid for sid in range(n_spans) if self.names[self.kinds[sid]] == SO]
        own = sum(self.ends[sid] - self.starts[sid] - child_time[sid] for sid in so_spans)
        out[f"{SO}.self_ms_per_call"] = 1e3 * own / len(so_spans) if so_spans else 0.0
        out[f"{SO}.op_share"] = total[SO] / op_time if op_time else 0.0
        for mod in modules:
            out[f"{mod}.op_share"] = module_time[mod] / op_time if op_time else 0.0
        return out

    def dump(self, path, header: dict) -> None:
        data = dict(header, trace=self.trace_ids.tolist(), **self.export())
        with open(path, "w") as fh:
            json.dump(data, fh)
