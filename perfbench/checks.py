"""Correctness checks for one executed request.

:func:`verdict` returns ``None`` when the request behaved correctly and a
short reason otherwise.  A request fails when its exit code, its stderr
shape or its answer is wrong; answers are compared with the independent
reference in :mod:`exact`.
"""

from __future__ import annotations

import json
from itertools import product

import exact

def _error_shape_ok(stderr: str) -> bool:
    try:
        obj = json.loads(stderr)
    except ValueError:
        return False
    return (
        isinstance(obj, dict)
        and list(obj) == ["error"]
        and isinstance(obj["error"], dict)
        and {"status", "message"} <= set(obj["error"])
    )


def _error(code, stderr, codes):
    if code not in codes:
        return f"exit {code}, expected one of {list(codes)}"
    if not _error_shape_ok(stderr):
        return "stderr is not an error JSON object"
    return None


def verdict(check: dict, code, stdout: str, stderr: str):
    kind = check["kind"]
    if kind == "error":
        return _error(code, stderr, check["codes"])
    if kind == "huge":
        if code == 0:
            return _answer(check, stdout)
        return _error(code, stderr, (2,))
    if code != 0:
        return f"exit {code}, expected 0"
    return _answer(check, stdout)


def _answer(check, stdout):
    try:
        out = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    try:
        ok = CHECKS[check["kind"]](check, out)
    except (KeyError, TypeError, IndexError, AttributeError):
        ok = False
    return None if ok else f"wrong {check['kind']} answer"


def _validate(check, out):
    axioms = {v["axiom"] for v in out["violations"]}
    if check["ok"]:
        return out == {"ok": True, "violations": []}
    return out["ok"] is False and check["axiom"] in axioms


def _support(check, out):
    n, r, values = check["n"], check["r"], check["values"]
    points = out["support"]
    return points == exact.support(n, r, values) and exact.projections(n, points) == values


def _projections(check, out):
    k = len(check["n"])
    return out == {"k": k, "values": exact.subset_json(k, check["values"]), "r": check["r"]}


def _betas(check, out):
    expected = exact.betas(check["n"], check["r"], check["values"], check["criterion"])
    if "table" in check and out["betas"] != check["table"]:
        return False
    return out["betas"] == expected


def _analyze(check, out):
    n, r, values = check["n"], check["r"], check["values"]
    coeffs = {tuple(g): a for g, a in check["coeffs"]}
    k = len(n)
    full = (1 << k) - 1
    if check["beta"] is None:
        records = out["results"]
        betas = [list(b) for b in product(*(range(x + 1) for x in n)) if sum(b) == r + 1]
    else:
        records, betas = [out], [check["beta"]]
    if [rec["beta"] for rec in records] != betas:
        return False
    for rec, beta in zip(records, betas):
        sums = [sum(b for i, b in enumerate(beta) if m >> i & 1) for m in range(full + 1)]
        tight = [m for m in range(full + 1) if sums[m] == values[m] + 1]
        one_deficient = all(sums[m] <= values[m] + 1 for m in range(full + 1))
        circuit = (
            min(beta) > 0
            and one_deficient
            and all(sums[m] <= values[m] for m in range(1, full))
        )
        form = exact.criterion_form(n, coeffs, beta)
        meet = full
        for m in tight:
            meet &= m
        expected = {
            "beta": beta,
            "hypersurface": any(form),
            "determines": all(form),
            "one_deficient": one_deficient,
            "circuit": circuit,
            "tight_set": [i + 1 for i in range(k) if meet >> i & 1] if one_deficient else None,
            "criterion_form": [str(a) for a in form],
            "chow_degree": [str(a) for a in form] if any(form) else None,
        }
        # The paper's criteria, restated: a hypersurface exactly when beta is
        # 1-deficient, determining exactly when beta is a circuit.
        if rec["hypersurface"] != rec["one_deficient"] or rec["determines"] != rec["circuit"]:
            return False
        if rec != expected:
            return False
    return True


def _equal(check, out):
    return out == check["expected"]


def _epsilon(check, out):
    return out == {"counts": [1] * check["trials"]}


def _oracle_multidegree(check, out):
    return out["majority"] == check["expected"] and out["expected"] == check["expected"]


CHECKS = {
    "validate": _validate,
    "support": _support,
    "projections": _projections,
    "betas": _betas,
    "analyze": _analyze,
    "equal": _equal,
    "huge": _equal,
    "epsilon": _epsilon,
    "oracle-multidegree": _oracle_multidegree,
}
