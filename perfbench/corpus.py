"""Seeded request corpora, one generator per workload.

A corpus is a sequence of blocks.  Every block holds the same mix of
request kinds (subcommand, k, input family) in a seeded order, so a run
that executes whole blocks measures the same mix on every seed; the seed
only changes the random content.  Each request carries the argv and stdin
text the program receives, plus a ``check`` spec that :mod:`checks` uses to
verify the answer.  Nothing here calls the program under test.
"""

from __future__ import annotations

import json
import random
from itertools import product

import exact

# Determining profiles of the multiview variety (the paper's table).
DETERMINING = {
    2: [[2, 2]],
    3: [[1, 1, 2], [1, 2, 1], [2, 1, 1]],
    4: [[1, 1, 1, 1]],
}

# analyze --all-beta at k=8 takes about 0.8 s, a quarter of a block; leaving
# it out keeps blocks short, so a run holds more of them to choose from.
ALL_BETA_MAX_K = 7

# One fixed request per workload, not in any corpus, sent once before timing.
WARMUP = {
    "argv": ["validate-rank"],
    "stdin": json.dumps(
        {"n": [1], "r": 1, "rank_function": {"k": 1, "values": exact.subset_json(1, [0, 1])}}
    ),
}
GEOMETRY_WARMUP = {
    "argv": ["tensor"],
    "stdin": json.dumps(
        {
            "cameras": [
                [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
                [[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, 3]],
            ],
            "beta": [2, 2],
        }
    ),
}


def _request(sub, payload, check, k, extra=(), malformed=False, defect=None):
    stdin = payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True)
    return {
        "sub": sub,
        "argv": [sub, *extra],
        "stdin": stdin,
        "k": k,
        "check": check,
        "malformed": malformed,
        "defect": defect,
    }


# ---------------------------------------------------------------------------
# combinatorics


class _Multiview:
    """Multiview multidegree data for one k, computed once per corpus."""

    def __init__(self, k):
        self.k = k
        self.n = [2] * k
        self.coeffs = exact.multiview_coeffs(k)
        self.values = exact.multiview_delta(k)
        self.json = exact.multidegree_json(self.n, 3, self.coeffs)
        self.betas = [list(b) for b in product(range(3), repeat=k) if sum(b) == 4]

    def spec(self, kind, **more):
        return {"kind": kind, "n": self.n, "r": 3, "values": self.values, **more}


def _multiview_requests(rng, mv):
    k, n = mv.k, mv.n
    coeff_list = [[list(g), a] for g, a in sorted(mv.coeffs.items())]
    out = [
        _request("validate-rank", mv.json, {"kind": "validate", "ok": True}, k),
        _request("support", mv.json, mv.spec("support"), k),
        _request(
            "projections",
            {"n": n, "r": 3, "support": sorted(list(g) for g in mv.coeffs)},
            mv.spec("projections"),
            k,
        ),
        _request(
            "betas", mv.json, mv.spec("betas", criterion="hypersurface"), k,
            ("--criterion", "hypersurface"),
        ),
        _request(
            "betas",
            mv.json,
            mv.spec("betas", criterion="determining", table=DETERMINING.get(k, [])),
            k,
            ("--criterion", "determining"),
        ),
    ]
    if k <= ALL_BETA_MAX_K:
        out.append(
            _request(
                "analyze", mv.json, mv.spec("analyze", coeffs=coeff_list, beta=None), k,
                ("--all-beta",),
            )
        )
    beta = rng.choice(mv.betas)
    out.append(
        _request(
            "analyze",
            {**mv.json, "beta": beta},
            mv.spec("analyze", coeffs=coeff_list, beta=beta),
            k,
        )
    )
    out.append(_slice_request(rng, mv))
    out.append(_chow_request(rng, mv, "variety"))
    out.append(_chow_request(rng, mv, "cycle"))
    return out


def _slice_request(rng, mv):
    k = mv.k
    while True:
        beta = rng.choice(mv.betas)
        size = rng.randint(1, k - 1)
        subset = sorted(rng.sample(range(k), size))
        new_r = 3 - sum(beta[i] for i in subset)
        if 0 <= new_r <= 2 * (k - size):
            break
    alpha = [2 - b for b in beta]
    kept = [i for i in range(k) if i not in subset]
    coeffs = {
        tuple(g[i] for i in kept): a
        for g, a in mv.coeffs.items()
        if all(g[i] == alpha[i] for i in subset)
    }
    expected = exact.multidegree_json([2] * len(kept), new_r, coeffs, "cycle")
    payload = {**mv.json, "beta": beta, "subset": [i + 1 for i in subset]}
    return _request("slice", payload, {"kind": "equal", "expected": expected}, k)


def _chow_request(rng, mv, tag):
    """Summed multidegrees; variety-tagged parts pay the support round trip
    on construction, cycle-tagged parts do not."""
    while True:
        beta = rng.choice(mv.betas)
        form = exact.criterion_form(mv.n, mv.coeffs, beta)
        if any(form):
            break
    scale = rng.randint(1, 4)
    scaled = {g: a * scale for g, a in mv.coeffs.items()}
    parts = [
        exact.multidegree_json(mv.n, 3, mv.coeffs, tag),
        exact.multidegree_json(mv.n, 3, scaled, tag),
    ]
    expected = {"chow_degree": [str(a * (1 + scale)) for a in form]}
    return _request(
        "chow-degree",
        {"multidegrees": parts, "beta": beta},
        {"kind": "equal", "expected": expected},
        mv.k,
    )


def _perturb(rng, n, values):
    """Break one axiom on purpose; returns (values, axiom)."""
    k = len(n)
    values = list(values)
    full = (1 << k) - 1
    choices = ["normalization", "bounded", "monotone"] + (["submodular"] if k >= 2 else [])
    axiom = rng.choice(choices)
    if axiom == "normalization":
        values[0] = 1
    elif axiom == "bounded":
        i = rng.randrange(k)
        values[1 << i] = n[i] + 1
    elif axiom == "monotone":
        i = rng.randrange(k)
        mask = rng.choice([m for m in range(full) if not m >> i & 1])
        values[mask] = values[mask | 1 << i] + 1
    else:
        mask = rng.choice([m for m in range(full) if bin(full & ~m).count("1") >= 2])
        i, j = rng.sample([b for b in range(k) if not mask >> b & 1], 2)
        a, b = mask | 1 << i, mask | 1 << j
        values[a | b] = values[a] + values[b] - values[mask] + 1
    return values, axiom


def _rank_payload(n, r, values):
    k = len(n)
    return {"n": n, "r": r, "rank_function": {"k": k, "values": exact.subset_json(k, values)}}


def _polymatroid_requests(rng, k):
    n, r, values = exact.random_polymatroid(rng, k)
    spec = {"n": n, "r": r, "values": values}
    bad, axiom = _perturb(rng, n, values)
    payload = _rank_payload(n, r, values)
    return [
        _request("validate-rank", payload, {"kind": "validate", "ok": True}, k),
        _request(
            "validate-rank",
            _rank_payload(n, r, bad),
            {"kind": "validate", "ok": False, "axiom": axiom},
            k,
        ),
        _request("support", payload, {"kind": "support", **spec}, k),
        _request(
            "betas", payload, {"kind": "betas", "criterion": "hypersurface", **spec}, k,
            ("--criterion", "hypersurface"),
        ),
        _request(
            "betas", payload, {"kind": "betas", "criterion": "determining", **spec}, k,
            ("--criterion", "determining"),
        ),
        _request(
            "projections",
            {"n": n, "r": r, "support": exact.support(n, r, values)},
            {"kind": "projections", **spec},
            k,
        ),
    ]


# ---------------------------------------------------------------------------
# malformed input


ERROR = {"kind": "error", "codes": [2]}


def _huge_chow_request(rng):
    """Two cycle multidegrees whose summed coefficient needs 4,301 digits,
    one more than Python's default integer-string limit."""
    big = [5 * 10**4299 + rng.randrange(10**4299) for _ in range(2)]
    small = [rng.randint(1, 9) for _ in range(2)]
    parts = [
        exact.multidegree_json([2, 2], 2, {(2, 0): b, (1, 1): s, (0, 2): 1}, "cycle")
        for b, s in zip(big, small)
    ]
    expected = {"chow_degree": [str(sum(big)), str(sum(small))]}
    return _request(
        "chow-degree",
        {"multidegrees": parts, "beta": [1, 2]},
        {"kind": "huge", "expected": expected},
        2,
        malformed=True,
        defect="5b",
    )


def _broken_camera_request(rng, entry):
    """A camera entry that is not a rational number.  Parsing fails before
    any camera is built, so no linear algebra runs."""
    cams = exact.random_cameras(rng, 2)
    cams[rng.randrange(2)][rng.randrange(3)][rng.randrange(4)] = entry
    sub = rng.choice(["tensor", "residual", "oracle-epsilon"])
    payload = {"cameras": cams, "beta": [2, 2]}
    if sub == "residual":
        payload["spaces"] = [[["1", "0", "0"], ["0", "1", "0"]]] * 2
    extra = ("--trials", "2") if sub == "oracle-epsilon" else ()
    return _request(sub, payload, ERROR, 2, extra, malformed=True, defect="5a")


def _malformed_requests(rng, valid, mv):
    """Inputs that must end in exit 2 with a JSON error.  The ``defect``
    ones end in a traceback at the seed (ROADMAP item 5 (a) and (b)) and
    count as failures until that is fixed."""
    cut = rng.choice(valid)
    bad_beta = list(rng.choice(mv.betas))
    bad_beta[rng.randrange(mv.k)] = 3
    missing = rng.choice(
        [
            ("betas", {"n": mv.n, "r": 3}, ("--criterion", "hypersurface")),
            ("slice", {**mv.json, "beta": rng.choice(mv.betas)}, ()),
        ]
    )
    return [
        {
            **cut,
            "stdin": cut["stdin"][: rng.randrange(1, len(cut["stdin"]))],
            "check": ERROR,
            "malformed": True,
        },
        _request(missing[0], missing[1], ERROR, mv.k, missing[2], malformed=True),
        _request("analyze", {**mv.json, "beta": bad_beta}, ERROR, mv.k, malformed=True),
        _broken_camera_request(rng, "1/0"),
        _broken_camera_request(rng, "x"),
        _huge_chow_request(rng),
    ]


class Combinatorics:
    """Multiview multidegrees (repeated every block) and fresh random
    polymatroids (unique per block) through the polymatroid and
    multidegree layers, plus malformed inputs on the error paths."""

    def __init__(self, seed, smoke=False):
        self.seed = seed
        top = 4 if smoke else 8
        self.multiview = [_Multiview(k) for k in range(2, top + 1)]
        self.random_k = list(range(2, top + 1))
        self.warmup = WARMUP

    def block(self, index):
        rng = random.Random(f"combinatorics:{self.seed}:{index}")
        out = []
        for mv in self.multiview:
            out += _multiview_requests(rng, mv)
        for k in self.random_k:
            out += _polymatroid_requests(rng, k)
        out += _malformed_requests(rng, out, rng.choice(self.multiview[:3]))
        rng.shuffle(out)
        return out


# ---------------------------------------------------------------------------
# geometry


class _Config:
    def __init__(self, cams):
        self.cams = cams
        self.json = {"cameras": cams}
        self._tensors = {}

    def tensor(self, beta):
        key = tuple(beta)
        if key not in self._tensors:
            self._tensors[key] = exact.tensor(self.cams, beta)
        return self._tensors[key]


def _world_point(rng, cams):
    while True:
        point = [exact.random_rational(rng) for _ in range(4)]
        images = [exact.apply(cam, point) for cam in cams]
        if all(any(img) for img in images):
            return images


def _nonmember(rng, config, beta):
    """A candidate tuple certified off the always-incident locus: some
    choice of lines through it gives a nonzero contraction."""
    entries = config.tensor(beta)
    while True:
        cand = [[rng.randint(-10, 10) for _ in range(3)] for _ in beta]
        if not all(any(x) for x in cand):
            continue
        options = [[x] if b == 2 else exact.forms_through(x) for x, b in zip(cand, beta)]
        if any(exact.contract(entries, coords) for coords in product(*options)):
            return cand


def _camera_requests(rng, k, config, beta):
    entries = config.tensor(beta)
    spaces = [exact.random_forms(rng, b) for b in beta]
    value = str(exact.residual(config.cams, spaces))
    spaces_json = [[exact.strs(f) for f in factor] for factor in spaces]
    coords = [exact.strs(c) for c in exact.slot_coordinates(spaces)]
    base = {**config.json, "beta": beta}
    member = [exact.strs(x) for x in _world_point(rng, config.cams)]
    nonmember = [[str(x) for x in c] for c in _nonmember(rng, config, beta)]

    def seed():
        return ("--seed", str(rng.randrange(10**6)))

    return [
        _request(
            "tensor", base,
            {"kind": "equal", "expected": exact.tensor_json(beta, entries)}, k,
        ),
        _request(
            "residual", {**config.json, "spaces": spaces_json},
            {"kind": "equal", "expected": {"residual": value}}, k,
        ),
        _request(
            "contract",
            {"tensor": exact.tensor_json(beta, entries), "coordinates": coords},
            {"kind": "equal", "expected": {"value": value}}, k,
        ),
        _request(
            "oracle-epsilon", base, {"kind": "epsilon", "trials": 4}, k,
            ("--trials", "4", *seed()),
        ),
        _request(
            "sz-test", {**base, "candidate": member},
            {"kind": "equal", "expected": {"member": True}}, k,
            ("--trials", "4", *seed()),
        ),
        _request(
            "sz-test", {**base, "candidate": nonmember},
            {"kind": "equal", "expected": {"member": False}}, k,
            ("--trials", "20", *seed()),
        ),
    ]


def _oracle_multidegree_request(rng, k, config, trials):
    coeffs = exact.multiview_coeffs(k)
    gamma = list(rng.choice(sorted(coeffs)))
    return _request(
        "oracle-multidegree",
        {**config.json, "gamma": gamma},
        {"kind": "oracle-multidegree", "expected": coeffs[tuple(gamma)]},
        k,
        ("--trials", str(trials), "--seed", str(rng.randrange(10**6))),
    )


class Geometry:
    """Seeded camera configurations through tensors, residuals and the
    three randomized oracles; exact Fraction elimination in linalg does
    almost all of the work."""

    def __init__(self, seed, smoke=False):
        self.seed = seed
        rng = random.Random(f"geometry:{seed}:cameras")
        per_k = 1 if smoke else 3
        self.pool = {
            k: [_Config(exact.random_cameras(rng, k)) for _ in range(per_k)]
            for k in (2, 3, 4, 5)
        }
        self.warmup = GEOMETRY_WARMUP

    def block(self, index):
        rng = random.Random(f"geometry:{self.seed}:{index}")
        out = []
        for k in (2, 3, 4):
            out += _camera_requests(rng, k, rng.choice(self.pool[k]), rng.choice(DETERMINING[k]))
        for k in (2, 3, 4, 5):
            out.append(_oracle_multidegree_request(rng, k, rng.choice(self.pool[k]), 5))
        rng.shuffle(out)
        return out


def kscale_cameras(seed):
    """One configuration per k for the tensor scaling timings."""
    rng = random.Random(f"kscale:{seed}")
    return {k: exact.random_cameras(rng, k) for k in (2, 3, 4)}


WORKLOADS = {
    "combinatorics": Combinatorics,
    "geometry": Geometry,
}
