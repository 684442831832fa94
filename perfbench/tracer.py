"""In-memory span recording and call counting around hopfcheck's public API.

A :class:`Tracer` replaces public functions and methods of the hopfcheck
modules with wrappers.  A span wrapper records one span per call as
``(name, start_ns, end_ns, parent)``, where ``parent`` is the index of the
enclosing span (-1 for none).  A count wrapper only increments a counter;
counters are one-element lists, the cheapest increment in CPython, because
ring arithmetic is counted tens of millions of times per run.
Spans stay in memory; :meth:`Tracer.dump` writes them out once, at exit.
:meth:`Tracer.uninstall` restores every patched attribute.

Self time is computed afterwards by :func:`self_times`: a span's duration
minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list = []
        self._stack = [-1]
        self._cells: dict[str, list] = {}
        self.table_keys: dict[str, set] = {"product": set(), "coproduct": set()}
        self._undo: list = []

    # wrappers ---------------------------------------------------------------
    def spanned(self, name: str, fn):
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        idx = self._name_index[name]
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(i)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[i] = (idx, start, end, parent)

        return wrapper

    def cell(self, name: str) -> list:
        """The one-element counter list for ``name``."""
        return self._cells.setdefault(name, [0])

    def counted(self, name: str, fn):
        """Count calls of a binary operator ``fn(a, b)``."""
        cell = self.cell(name)

        def wrapper(a, b):
            cell[0] += 1
            return fn(a, b)

        return wrapper

    # patching ---------------------------------------------------------------
    def patch_attr(self, owner, attr: str, make_wrapper):
        """Replace ``owner.attr`` (a class attribute, possibly inherited)."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        setattr(owner, attr, make_wrapper(original))
        self._undo.append((owner, attr, original if had_own else None))

    def patch_function(self, module, attr: str, make_wrapper):
        """Replace a module-level function in every hopfcheck module that
        binds it, so callers that imported it by name see the wrapper."""
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for mod in _hopfcheck_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._undo.append((mod, name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # output -----------------------------------------------------------------
    def dump(self, path, extra=None):
        counts = {name: cell[0] for name, cell in self._cells.items()}
        for kind, keys in self.table_keys.items():
            counts[f"hopf.{kind}_table.entries"] = len(keys)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": counts, "extra": extra or {}}, fh)


def _hopfcheck_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "hopfcheck" or n.startswith("hopfcheck."))]


def install_layer_probes(tracer: Tracer):
    """Wrap the public entry points of each hopfcheck layer."""
    from hopfcheck import gmod, reduced, specfile, verify, zoo
    from hopfcheck.gmod import Element, GradedMap, Tensor2Element, Tensor2Map
    from hopfcheck.hopf import HopfPresentation
    from hopfcheck.rings import RingElement

    t = tracer

    # rings: every RingElement '*', '+' and '-' (__rsub__ goes through __sub__)
    for attr in ("__mul__", "__rmul__"):
        t.patch_attr(RingElement, attr, lambda f: t.counted("rings.mul.calls", f))
    for attr in ("__add__", "__radd__", "__sub__"):
        t.patch_attr(RingElement, attr, lambda f: t.counted("rings.add.calls", f))

    # gmod
    for cls in (Element, Tensor2Element):
        t.patch_attr(cls, "__add__",
                     lambda f: t.counted("gmod.element_add.calls", f))
    t.patch_attr(GradedMap, "__call__", lambda f: t.spanned("gmod.map_apply", f))
    t.patch_attr(GradedMap, "compose", lambda f: t.spanned("gmod.compose", f))
    t.patch_attr(GradedMap, "apply_tensor",
                 lambda f: t.spanned("gmod.apply_tensor", f))
    t.patch_attr(Tensor2Map, "compose",
                 lambda f: t.spanned("gmod.tensor_compose", f))

    def count_tensor_map(init):
        pairs, nonzero = t.cell("gmod.tensor_map.pairs"), t.cell("gmod.tensor_map.nonzero")

        def wrapper(self, basis, ring, images):
            init(self, basis, ring, images)
            pairs[0] += len(images)
            nonzero[0] += sum(1 for img in images.values() if not img.is_zero())
        return wrapper

    t.patch_attr(Tensor2Map, "__init__", count_tensor_map)

    def count_cells(kv):
        cells = t.cell("gmod.kernel_vectors.cells")

        def wrapper(columns, keys, ring):
            keys = list(keys)
            rows = set()
            for k in keys:
                rows.update(columns[k])
            cells[0] += len(rows) * len(keys)
            return kv(columns, keys, ring)
        return wrapper

    t.patch_function(gmod, "kernel_vectors",
                     lambda f: count_cells(t.spanned("gmod.kernel_vectors", f)))

    # hopf: structure tables, products, antipodes, the bialgebra verifier
    def table_probe(kind, fn):
        keys = t.table_keys[kind]
        calls = t.cell(f"hopf.{kind}_table.calls")

        def wrapper(self, *labels):
            calls[0] += 1
            keys.add((id(self), labels))
            return fn(self, *labels)
        return wrapper

    t.patch_attr(HopfPresentation, "product_of_labels",
                 lambda f: table_probe("product", f))
    t.patch_attr(HopfPresentation, "coproduct_of_label",
                 lambda f: table_probe("coproduct", f))
    for method in ("product", "t2_product", "antipode", "antipode_oracle",
                   "verify_bialgebra"):
        t.patch_attr(HopfPresentation, method,
                     lambda f, m=method: t.spanned(f"hopf.{m}", f))

    # reduced
    for fn in ("is_primitive", "reduced_coproduct"):
        t.patch_function(reduced, fn, lambda f, n=fn: t.spanned(f"reduced.{n}", f))

    # verify
    for fn in ("suite_graded_hopf", "suite_lowered_exponent", "instance_from_hopf",
               "check_hypotheses", "verify_conclusions", "binomial_identity_check"):
        t.patch_function(verify, fn, lambda f, n=fn: t.spanned(f"verify.{n}", f))

    # algebra construction
    t.patch_function(specfile, "parse_presentation_file",
                     lambda f: t.spanned("specfile.parse", f))
    t.patch_function(zoo, "build_algebra",
                     lambda f: t.spanned("zoo.build_algebra", f))


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Per-span self time: duration minus the part covered by its children.

    ``spans`` is a list of ``(name, start, end, parent_index)``.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    return [s[2] - s[1] - _covered(s[1], s[2], children.get(i, ()))
            for i, s in enumerate(spans)]


def summarize(names, spans):
    """Per span name: call count, total (inclusive) ns, self ns, first-call ns."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for (idx, start, end, _), self_ns in zip(spans, selfs):
        agg = out.setdefault(names[idx], {"calls": 0, "total_ns": 0,
                                          "self_ns": 0, "first_ns": None})
        agg["calls"] += 1
        agg["total_ns"] += end - start
        agg["self_ns"] += self_ns
        if agg["first_ns"] is None:
            agg["first_ns"] = end - start
    return out
