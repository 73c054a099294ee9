"""Verdict fields of a homkit JSON report and their comparison with a reference.

A field is *decided* unless its text says Unknown/undetermined.  Against a
reference, a request fails only when a field decided in both runs changed;
Unknown -> decided is progress, and decided -> Unknown shows up in the
undetermined rate instead.  Certificate details are not verdicts:
``InfiniteCertified(repeat at 4, period 2)`` compares as ``infinite``.
"""

from __future__ import annotations

UNKNOWN = None

# keys that name or parametrise a report, or are derived from other fields
# (``height_estimate`` follows gldim and the two extension verdicts), so
# they are not compared on their own
_SKIP = {"format", "kind", "algebra", "cutoff", "height_estimate", "leaf", "subsets_tried"}

# the field holding the top-level verdict of each request kind but stratify
_TOP = {"gorenstein-transfer": "overall", "smoothness-transfer": "overall"}


def normalize(value):
    if value is None:
        return UNKNOWN
    if isinstance(value, str):
        if "Unknown" in value or value == "undetermined":
            return UNKNOWN
        if value.startswith("InfiniteCertified"):
            return "infinite"
    return value


def fields(report: dict, prefix: str = "") -> dict:
    """Flatten a report into ``path -> normalized value``."""
    out = {}
    for key in sorted(report):
        if key in _SKIP:
            continue
        value = report[key]
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(fields(value, path + "."))
        else:
            out[path] = normalize(value)
    return out


def record(kind: str, report: dict) -> dict:
    """The reference entry for one request: its fields and top-level state."""
    if kind == "stratify":
        return {"tree": report["tree"], "undetermined": _tree_undetermined(report["tree"])}
    return {"fields": fields(report), "undetermined": normalize(report[_TOP[kind]]) is UNKNOWN}


def _node_fields(node: dict) -> dict:
    return {k: v for k, v in fields(node).items()
            if not k.startswith(("quotient.", "corner."))}


def _tree_undetermined(node: dict) -> bool:
    if any(v is UNKNOWN for v in _node_fields(node).values()):
        return True
    return any(_tree_undetermined(node[c]) for c in ("quotient", "corner") if c in node)


def _split_key(split: list[int]):
    return (len(split), split)  # stratify_search tries subsets by size, then lexicographically


def _compare_fields(ref: dict, new: dict, where: str) -> list[str]:
    bad = []
    for path, rv in ref.items():
        if rv is UNKNOWN:
            continue
        if path not in new:
            bad.append(f"{where}{path}: missing (reference {rv!r})")
            continue
        nv = new[path]
        if nv is not UNKNOWN and nv != rv:
            bad.append(f"{where}{path}: {nv!r} != reference {rv!r}")
    return bad


def _compare_tree(ref: dict, new: dict, where: str) -> list[str]:
    bad = _compare_fields({k: v for k, v in _node_fields(ref).items()
                           if k in ("det", "dim", "r")}, _node_fields(new), where)
    if "split_vertices" not in ref:
        return bad  # a leaf is no verdict: a later split is more decided, not wrong
    if "split_vertices" not in new:
        return bad + [f"{where}split at {ref['split_vertices']} lost"]
    rs, ns = ref["split_vertices"], new["split_vertices"]
    if ns != rs:
        if _split_key(ns) < _split_key(rs):
            return bad  # an earlier subset, Unknown before, is now certified Yes
        return bad + [f"{where}split at {ns} != reference {rs}"]
    bad += _compare_fields(_node_fields(ref), _node_fields(new), where)
    for child in ("quotient", "corner"):
        bad += _compare_tree(ref[child], new[child], f"{where}{child}.")
    return bad


def compare(kind: str, reference: dict, report: dict) -> list[str]:
    """Mismatches of ``report`` against a reference entry (empty = correct)."""
    if kind == "stratify":
        return _compare_tree(reference["tree"], report["tree"], "")
    return _compare_fields(reference["fields"], fields(report), "")
