"""Command-line front end: every library operation over JSON.

Input is read from ``--input PATH`` or standard input; output is canonical
JSON (sorted keys, arbitrary-precision numerics as decimal strings) on
standard output, so identical inputs and seeds give byte-identical output.
A failure writes one JSON error with the raised exception's ``status`` to
standard error; :data:`EXIT_CODES` gives the exit code: 0 ok, 2 precondition
failure or malformed input, 3 degenerate input, 4 inapplicable criterion.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from collections import namedtuple
from types import SimpleNamespace

from . import multidegree as mdg
from . import multiview as mv
from . import polymatroid as pm
from .errors import (
    DegenerateInputError,
    MultichowError,
    PreconditionError,
    array,
    decimal,
    field,
    integer,
    ints,
)

EXIT_CODES = {
    "ok": 0,
    "precondition-failed": 2,
    "degenerate-input": 3,
    "inapplicable": 4,
}


# ---------------------------------------------------------------------------
# input parsing helpers


def _load_input(args) -> dict:
    try:
        if args.input is None:
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
        obj = json.loads(text)
    except (OSError, ValueError, RecursionError) as exc:
        raise PreconditionError(f"cannot read JSON input: {exc}")
    if not isinstance(obj, dict):
        raise PreconditionError("input must be a JSON object")
    return obj


def _rank_function(obj) -> tuple[pm.SpaceSignature, pm.RankFunction]:
    """The signature and the explicit ``"rank_function"``, unvalidated."""
    sig = pm.SpaceSignature(field(obj, "n", ints), field(obj, "r", integer))
    return sig, field(obj, "rank_function", pm.RankFunction.from_json)


def _polymatroid(obj) -> pm.Polymatroid:
    """An explicit rank function's polymatroid, validated, or else a
    variety multidegree's, kept from its consistency check; a cycle is
    refused."""
    if "rank_function" in obj:
        return pm.Polymatroid(*_rank_function(obj))
    return _parse_multidegree(obj).polymatroid()


def _parse_multidegree(obj) -> mdg.Multidegree:
    if "multidegrees" in obj:
        parts = field(
            obj, "multidegrees", lambda mds: [mdg.Multidegree.from_json(p) for p in array(mds)]
        )
        if not parts:
            raise PreconditionError("'multidegrees' must be nonempty")
        return functools.reduce(mdg.multidegree_add, parts)
    if "multidegree" in obj:
        return field(obj, "multidegree", mdg.Multidegree.from_json)
    if "coefficients" in obj:
        return mdg.Multidegree.from_json(obj)
    raise PreconditionError("input needs 'multidegree' (or top-level coefficients)")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_validate_rank(obj, args):
    """An explicit rank function or a multidegree's projection dimensions, validated.
    A support that passes the consistency check is M-convex, so its projection dimensions
    are a polymatroid rank function with ``delta(full) = r`` (Murota, *Discrete Convex
    Analysis*, SIAM 2003, ch. 4): its report is empty.  A variety passed the check when
    built; only a cycle that fails it builds its dimensions and has them validated."""
    if "rank_function" in obj:
        return pm.validate_rank_function(*_rank_function(obj)).to_json()
    md = _parse_multidegree(obj)
    try:
        if md.tag == mdg.CYCLE:
            pm.Polymatroid.from_support(md.sig, md.coeffs)
    except PreconditionError:
        return pm.validate_rank_function(md.sig, md.rank_function()).to_json()
    return pm.ValidationReport(True, ()).to_json()


def _cmd_support(obj, args):
    return {"support": [list(g) for g in _polymatroid(obj).support()]}


def _cmd_projections(obj, args):
    n = field(obj, "n", ints)
    support = field(obj, "support", lambda gammas: [ints(g) for g in array(gammas)])
    if not support:
        raise PreconditionError("rank function undefined for empty support")
    r = sum(n) - sum(support[0])
    if "r" in obj and field(obj, "r", integer) != r:
        raise PreconditionError(
            f"given r={obj['r']} contradicts support total degree (implies r={r})"
        )
    delta = pm.projections_from_support(pm.SpaceSignature(n, r), support)
    return {**delta.to_json(), "r": r}


def _cmd_betas(obj, args):
    betas = _polymatroid(obj).betas(args.criterion)
    return {"betas": [list(b) for b in betas]}


def _analyze_one(beta, form):
    """Every field from the criterion form of ``beta``: on a variety, the
    coefficient at ``alpha + e_j`` is positive exactly when that exponent is
    in the support, that is, when j is in the minimal tight set."""
    tight = [j + 1 for j, c in enumerate(form) if c]
    criterion = [decimal(c) for c in form]
    return {
        "beta": list(beta),
        "hypersurface": bool(tight),
        "determines": all(form),
        "one_deficient": bool(tight),
        "circuit": all(form),
        "tight_set": tight or None,
        "criterion_form": criterion,
        # A nonzero criterion form is the multidegree of the incidence form.
        "chow_degree": criterion if tight else None,
    }


def _cmd_analyze(obj, args):
    md = _parse_multidegree(obj)
    md.polymatroid()  # refuses a cycle: the criteria assume a variety
    if args.all_beta:
        return {"results": [_analyze_one(*pair) for pair in mdg.criterion_forms(md)]}
    beta = field(obj, "beta", ints)
    return _analyze_one(beta, mdg.criterion_form(md, beta))


def _cmd_chow_degree(obj, args):
    md = _parse_multidegree(obj)
    beta = field(obj, "beta", ints)
    degree = mdg.chow_form_multidegree(md, beta)
    return {"chow_degree": [decimal(d) for d in degree]}


def _cmd_slice(obj, args):
    md = _parse_multidegree(obj)
    beta = field(obj, "beta", ints)
    subset = field(obj, "subset", ints)
    return mdg.slice_multidegree(md, subset, beta).to_json()


def _cmd_tensor(obj, args):
    config = mv.CameraConfiguration.from_json(obj)
    beta = field(obj, "beta", ints)
    tensor = mv.multifocal_tensor(config, beta)
    return tensor.to_json()


def _cmd_residual(obj, args):
    config = mv.CameraConfiguration.from_json(obj)
    spaces = field(obj, "spaces", mv.LinearSpaceTuple.from_json)
    return {"residual": decimal(mv.chow_residual(config, spaces))}


def _cmd_contract(obj, args):
    tensor = field(obj, "tensor", mv.MultifocalTensor.from_json)
    return {"value": decimal(field(obj, "coordinates", lambda c: mv.tensor_contract(tensor, c)))}


def _counts_json(counts):
    return ["non-finite" if c is None else c for c in counts]


def _require_generic(config, answer):
    """Exit 3 unless the cameras are generic, as ``answer`` assumes."""
    if not config.is_generic():
        raise DegenerateInputError(
            f"camera configuration is not generic; {answer} assumes generic cameras"
        )


def _cmd_oracle_multidegree(obj, args):
    config = mv.CameraConfiguration.from_json(obj)
    gamma = field(obj, "gamma", ints)
    counts = mv.intersection_count_oracle(config, gamma, args.trials, args.seed)
    _require_generic(config, "'expected'")
    majority = mv.majority_count(counts)
    expected = mv.multiview_multidegree(config.k).coefficient(gamma)
    return {
        "counts": _counts_json(counts),
        "majority": "non-finite" if majority is None else majority,
        "expected": expected,
    }


def _cmd_oracle_epsilon(obj, args):
    config = mv.CameraConfiguration.from_json(obj)
    beta = field(obj, "beta", ints)
    counts = mv.epsilon_oracle(config, beta, args.trials, args.seed)
    _require_generic(config, "'counts'")
    return {"counts": _counts_json(counts)}


def _cmd_sz_test(obj, args):
    config = mv.CameraConfiguration.from_json(obj)
    beta = field(obj, "beta", ints)
    member = field(
        obj, "candidate", lambda cand: mv.sz_membership(config, beta, cand, args.trials, args.seed)
    )
    # A non-generic configuration can have an identically zero incidence
    # form, which every candidate would pass.
    _require_generic(config, "'member'")
    return {"member": member}


# ---------------------------------------------------------------------------
# the subcommand table and dispatch


#: A handler, the library operations it calls, and the arguments it takes
#: beyond ``--input`` and ``--format`` as (flag, keywords) pairs.
Subcommand = namedtuple("Subcommand", "handler operations arguments", defaults=((),))


#: The arguments of the randomized oracles.
SEEDED = (("--trials", {"type": int, "default": 20}), ("--seed", {"type": int, "default": 0}))

#: Each operation, a package name or ``Class.method``, appears in one
#: subcommand only; the coverage test reaches each from the golden cases.
SUBCOMMANDS = {
    "validate-rank": Subcommand(_cmd_validate_rank, ("validate_rank_function",)),
    "support": Subcommand(_cmd_support, ("support_from_projections",)),
    "projections": Subcommand(_cmd_projections, ("projections_from_support",)),
    "betas": Subcommand(
        _cmd_betas,
        ("Polymatroid.betas",),
        (("--criterion", {"choices": ("hypersurface", "determining"), "required": True}),),
    ),
    "analyze": Subcommand(
        _cmd_analyze,
        ("criterion_form", "criterion_forms"),
        (("--all-beta", {"action": "store_true"}),),
    ),
    "chow-degree": Subcommand(
        _cmd_chow_degree, ("chow_form_multidegree", "multidegree_add")
    ),
    "slice": Subcommand(_cmd_slice, ("slice_multidegree",)),
    "tensor": Subcommand(_cmd_tensor, ("multifocal_tensor",)),
    "residual": Subcommand(_cmd_residual, ("chow_residual",)),
    "contract": Subcommand(_cmd_contract, ("tensor_contract",)),
    "oracle-multidegree": Subcommand(
        _cmd_oracle_multidegree,
        ("intersection_count_oracle", "multiview_multidegree"),
        SEEDED,
    ),
    "oracle-epsilon": Subcommand(_cmd_oracle_epsilon, ("epsilon_oracle",), SEEDED),
    "sz-test": Subcommand(_cmd_sz_test, ("sz_membership",), SEEDED),
}


#: The arguments every subcommand takes, and the help option.
COMMON = (("--input", {}), ("--format", {"choices": ("pretty", "compact"), "default": "compact"}))
_HELP = ("--help", {"action": "help"})
#: A token that can name an option: ``-`` and more, but no negative number.
_OPTION = re.compile(r"-(?!\d+$|\d*\.\d+$).", re.S)


def _usage(name) -> str:
    """The usage of subcommand ``name``, or of every subcommand for None."""
    lines = []
    for sub in SUBCOMMANDS if name is None else (name,):
        words = [f"multichow {sub}"]
        for flag, kw in (*COMMON, *SUBCOMMANDS[sub].arguments):
            value = "{%s}" % ",".join(kw["choices"]) if "choices" in kw else flag[2:].upper()
            word = flag if "action" in kw else f"{flag} {value}"
            words.append(word if kw.get("required") else f"[{word}]")
        lines.append(" ".join(words))
    return "usage: " + "\n       ".join(lines) + "\n"


def read_argv(argv) -> SimpleNamespace:
    """``argv`` read from :data:`SUBCOMMANDS` as argparse reads it (see the
    README): a :class:`PreconditionError` refuses it, and ``-h`` or
    ``--help`` prints the usage and exits 0."""
    name, options, values, unknown = None, (_HELP,), {}, []
    tokens = iter(argv)
    for token in tokens:
        if token == "--":  # what follows reads as positionals, which no subcommand takes
            unknown += [token, *tokens]
            break
        if name is None and not _OPTION.match(token):
            if token not in SUBCOMMANDS:
                raise PreconditionError(f"argument command: invalid choice: {token!r}")
            name, options = token, (_HELP, *COMMON, *SUBCOMMANDS[token].arguments)
            values = {f: False if "action" in kw else kw.get("default") for f, kw in options[1:]}
            continue
        flag, eq, given = token.partition("=")
        flag = "--help" if flag == "-h" else flag
        found = [o for o in options if o[0] == flag]
        found = found or [o for o in options if o[0].startswith(flag)]
        if not _OPTION.match(token) or len(found) != 1:
            unknown.append(token)
            continue
        flag, kw = found[0]
        if "action" in kw:  # help and store_true take no value
            if eq:
                raise PreconditionError(f"argument {flag}: ignored explicit argument {given!r}")
            if kw["action"] == "help":
                sys.stdout.write(_usage(name))
                raise SystemExit(0)
            values[flag] = True
            continue
        if not eq and _OPTION.match(given := next(tokens, "--")):  # none left reads as "--"
            raise PreconditionError(f"argument {flag}: expected one argument")
        try:
            values[flag] = kw.get("type", str)(given)
        except ValueError:
            raise PreconditionError(f"argument {flag}: invalid value: {given!r}")
        if values[flag] not in kw.get("choices", (values[flag],)):
            raise PreconditionError(f"argument {flag}: invalid choice: {given!r}")
    if name is None:
        raise PreconditionError("the following arguments are required: command")
    missing = [flag for flag, kw in options if kw.get("required") and values[flag] is None]
    if missing:
        raise PreconditionError(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise PreconditionError(f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(command=name, **{f[2:].replace("-", "_"): v for f, v in values.items()})


def run(argv) -> tuple[str, object, str]:
    """Parse argv, load the input and dispatch: ``(status, payload, format)``;
    a failure gives its exception's status and message."""
    fmt = "compact"
    try:
        args = read_argv(argv)
        fmt = args.format
        return "ok", SUBCOMMANDS[args.command].handler(_load_input(args), args), fmt
    except MultichowError as exc:
        return exc.status, str(exc), fmt


def render(payload, fmt: str) -> str:
    if fmt == "pretty":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    status, payload, fmt = run(argv)
    if status == "ok":
        try:
            text = render(payload, fmt)
        except ValueError as exc:  # a JSON number past the integer-string digit limit
            status, payload = PreconditionError.status, f"result too large to write: {exc}"
        else:
            sys.stdout.write(text)
            return EXIT_CODES[status]
    sys.stderr.write(render({"error": {"status": status, "message": payload}}, fmt))
    return EXIT_CODES[status]


if __name__ == "__main__":
    sys.exit(main())
