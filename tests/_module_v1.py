"""The dense homkit-module/1 document of a module, as ``module_to_json``
wrote it before homkit-module/2: every action matrix as dim rows of dim
scalar strings.  The library still reads this format and no longer writes
it, so the tests that pin /1 bytes and the /1 reader write it here."""

from homkit.modules import module_to_json


def module_to_json_v1(m, algebra_ref=None):
    F = m.field
    zero = F.format(F.zero)
    empty = {}
    return {**module_to_json(m, algebra_ref), "format": "homkit-module/1",
            "action": {m.algebra.labels[x]: [[F.format(row[t]) if t in row else zero
                                              for t in range(m.dim)]
                                             for row in (mat.get(s, empty) for s in range(m.dim))]
                       for x, mat in enumerate(m.action)}}
