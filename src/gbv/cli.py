"""Command-line front end.

Subcommands map one-to-one onto the library modules::

    gbv variation      --input f.csv --functional lambda --weights harmonic --p 1
    gbv criterion      --theorem 1.4 --lambda harmonic --gamma constant --p 1 \
                       --qn linear --delta pow2 --ncap 20
    gbv counterexample --kind lambda --lambda harmonic --gamma constant ...
    gbv inequality     --suite master --samples 10000 --seed 7
    gbv norm           --input f.json --family '{"kind":"power","p":2,...}'

Reports are JSON (optionally CSV for plot data) and byte-identical across
runs with the same config and seed. Exit status: 0 success, 2 hypothesis
or infeasibility errors, 1 I/O, validation and internal-consistency
errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys

from . import __version__
from .counterexample import (PAPER_BASES, build_witness, certify_blowup,
                             certify_membership, level_constants,
                             plan_construction, witness_resolution)
from .criteria import (criterion_corollary_q, criterion_lambda_gamma,
                       criterion_phi_lambda, criterion_schramm,
                       criterion_union_p)
from .errors import (GbvError, HypothesisError, InfeasibleError, ResolutionError,
                     ValidationError)
from .inequalities import (run_comparison_suite, run_holder_suite,
                           run_master_suite, run_wu_suite)
from .sequences import (WEIGHT_KINDS, WEIGHT_PARAMS, ConvexBase, GaugePair,
                        SchrammFamily, WeightSequence)
from .stepfn import ingest
from .variation import (ORACLE_CAP_DEFAULT, modulus_of_variation, schramm_norm,
                        variation_gauged, variation_schramm,
                        variation_unweighted_q, variation_weighted)


def _number(what, spec, text):
    """``text``, a number in the ``what`` spec ``spec``, as a float."""
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"{what} spec {spec!r}: {text!r} is not a number") from None


def parse_weights(spec, k_max=None):
    """Weight-sequence spec: 'kind' or 'kind:arg' (the one parameter
    ``WEIGHT_PARAMS`` names for the kind: 'constant:v', 'power:alpha',
    'explicit:a,b,c'), inline JSON, or a path to a JSON config."""
    if spec.lstrip().startswith("{"):
        cfg = json.loads(spec)
    elif spec.endswith(".json"):
        with open(spec) as fh:
            cfg = json.load(fh)
    else:
        head, _, arg = spec.partition(":")
        cfg = {"kind": head}
        key = WEIGHT_PARAMS.get(head)
        if arg and key is not None:
            cfg[key] = ([_number("weight", spec, t) for t in arg.split(",")]
                        if key == "terms" else _number("weight", spec, arg))
        elif arg and head in WEIGHT_KINDS:
            raise ValidationError(f"weight spec {spec!r}: a {head} weight sequence "
                                  f"takes no argument")
    if k_max is not None and isinstance(cfg, dict):
        cfg.setdefault("k_max", k_max)
    return WeightSequence.from_config(cfg)


def parse_family(spec, k_max=None):
    """Schramm-family spec: inline JSON or a path to a JSON config."""
    if spec is None:
        raise ValidationError("this call needs --family")
    if spec.lstrip().startswith("{"):
        cfg = json.loads(spec)
    else:
        with open(spec) as fh:
            cfg = json.load(fh)
    # scaled families take the horizon from their weights; a config that is
    # no object is left to from_config to reject
    target = cfg.get("weights", cfg) if isinstance(cfg, dict) else None
    if k_max is not None and isinstance(target, dict):
        target.setdefault("k_max", k_max)
    return SchrammFamily.from_config(cfg)


#: per ladder (qn, delta), the GaugePair.build parameter each kind reads from
#: 'kind:arg', or None for a kind that reads none
_LADDER_PARAMS = ({"const": "q", "to": "q", "list": "qn_list", "linear": None},
                  {"list": "delta_list", "pow2": None})


def parse_gauge(qn_spec, delta_spec, n_max):
    # a count below 1 builds one level, so that GaugePair.levels rejects it
    kw = {"n_max": max(n_max, 1)}
    kinds = []
    for spec, params in zip((qn_spec, delta_spec), _LADDER_PARAMS):
        head, _, arg = spec.partition(":")
        key = params.get(head)
        if arg and key is not None:
            kw[key] = (_number("gauge", spec, arg) if key == "q"
                       else [_number("gauge", spec, v) for v in arg.split(",")])
        elif arg and head in params:
            raise ValidationError(f"gauge spec {spec!r}: a {head} ladder takes no argument")
        kinds.append(head)
    return GaugePair.build(*kinds, **kw)


def _write_report(args, payload):
    report = {
        "tool": "gbv",
        "version": __version__,
        # the destination path is not part of the computation, and keeping
        # it out makes reports byte-identical across reruns
        "config": {k: v for k, v in sorted(vars(args).items())
                   if k not in ("func", "output") and v is not None},
        "result": payload,
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return report


def cmd_variation(args):
    f = ingest(args.input, args.format)
    if args.functional == "modulus":
        res = modulus_of_variation(f, args.n)
    elif args.functional == "q":
        res = variation_unweighted_q(f, args.q, s_max=args.smax,
                                     min_len=args.minlen)
    elif args.functional == "lambda":
        res = variation_weighted(f, parse_weights(args.weights, args.kmax),
                                 args.p, oracle_cap=args.oracle_cap)
    elif args.functional == "schramm":
        res = variation_schramm(f, parse_family(args.family, args.kmax),
                                oracle_cap=args.oracle_cap)
    else:  # gauged
        gauge = parse_gauge(args.qn, args.delta, args.ncap)
        res = variation_gauged(f, parse_weights(args.weights, args.kmax),
                               gauge, args.ncap, oracle_cap=args.oracle_cap)
    _write_report(args, res.to_json_dict())
    print(f"variation {args.functional}: lower={res.lower!r} upper={res.upper!r} "
          f"mode={res.mode}")
    return 0


def cmd_criterion(args):
    if args.theorem == "1.4":
        gauge = parse_gauge(args.qn, args.delta, args.ncap)
        rep = criterion_lambda_gamma(
            parse_weights(getattr(args, "lambda"), args.kmax),
            parse_weights(args.gamma, args.kmax),
            args.p, gauge, args.ncap, second_part=args.second_part)
    elif args.theorem == "1.5":
        rep = criterion_corollary_q(
            parse_weights(getattr(args, "lambda"), args.kmax),
            parse_weights(args.gamma, args.kmax), args.p, args.q)
    elif args.theorem == "1.7":
        gauge = parse_gauge(args.qn, args.delta, args.ncap)
        rep = criterion_union_p(parse_weights(getattr(args, "lambda"), args.kmax),
                                args.p, gauge, args.ncap)
    elif args.theorem == "1.8":
        gauge = parse_gauge(args.qn, args.delta, args.ncap)
        rep = criterion_schramm(parse_family(args.family, args.kmax),
                                gauge, args.ncap)
    else:  # 1.9
        if args.phi is None:
            raise ValidationError("theorem 1.9 needs --phi")
        gauge = parse_gauge(args.qn, args.delta, args.ncap)
        base = ConvexBase.from_config(json.loads(args.phi))
        rep = criterion_phi_lambda(base,
                                   parse_weights(getattr(args, "lambda"), args.kmax),
                                   gauge, args.ncap)
    _write_report(args, rep.to_json_dict())
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(rep.to_csv())
    print(f"criterion {args.theorem}: verdict={rep.verdict} sup={rep.sup!r} "
          f"slope={rep.slope:.4g}")
    return 0


def cmd_counterexample(args):
    gauge = parse_gauge(args.qn, args.delta, args.levels)
    kw = {name: level_constants(name, getattr(args, f"{name}_base"), args.levels, coef)
          for name, (_, coef) in PAPER_BASES.items()}
    if args.kind == "lambda":
        spec = plan_construction(
            "lambda", gauge, args.levels,
            w_lambda=parse_weights(getattr(args, "lambda"), args.kmax),
            w_gamma=parse_weights(args.gamma, args.kmax), p=args.p, **kw)
    else:
        spec = plan_construction("schramm", gauge, args.levels,
                                 family=parse_family(args.family, args.kmax),
                                 **kw)
    payload = {"spec": spec.to_json_dict()}
    if args.build or args.certify or args.witness_out:
        f = build_witness(spec)
        m = payload["m"] = f.m
        if args.witness_out:
            f.write(args.witness_out)
    else:  # a plan needs no grid: one past the cap only names the summary's m
        try:
            m = witness_resolution(spec)
        except ResolutionError as exc:
            m = f"too large ({exc})"
    if args.certify:
        payload["membership"] = certify_membership(spec, f)
        payload["blowup"] = certify_blowup(spec, f)
    _write_report(args, payload)
    print(f"counterexample {args.kind}: levels={args.levels} m={m}")
    return 0


def cmd_inequality(args):
    if args.suite == "master":
        payload = run_master_suite(args.seed, samples=args.samples)
    elif args.suite == "wu":
        fams = [parse_family(s, args.kmax) for s in args.family] or [
            SchrammFamily.power(2.0, parse_weights("harmonic", args.kmax))]
        payload = run_wu_suite(args.seed, args.samples, fams)
    elif args.suite == "holder":
        payload = run_holder_suite(
            args.seed, args.samples,
            parse_weights(getattr(args, "lambda"), args.kmax),
            parse_weights(args.gamma, args.kmax), p=args.p, q_n=args.q)
    else:  # comparison
        payload = run_comparison_suite(
            args.seed, args.samples,
            parse_weights(getattr(args, "lambda"), args.kmax),
            parse_weights(args.gamma, args.kmax))
    _write_report(args, payload)
    print(f"inequality {args.suite}: cases run, failures={payload['failures']}")
    return 0 if payload["failures"] == 0 else 2


def cmd_norm(args):
    f = ingest(args.input, args.format)
    family = parse_family(args.family, args.kmax)
    value = schramm_norm(f, family, f_a=args.fa, oracle_cap=args.oracle_cap)
    _write_report(args, {"norm": value})
    print(f"norm: {value!r}")
    return 0


@functools.cache
def build_parser():
    """The parser, built once per process: parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="gbv",
        description="Generalized bounded-variation functionals, embedding "
                    "criteria and counterexample constructions.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="write the JSON report here "
                                        "(default: stdout)")
        p.add_argument("--kmax", type=int, help="weight-sequence horizon")

    p = sub.add_parser("variation", help="evaluate a variation functional")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--functional", required=True,
                   choices=("modulus", "q", "lambda", "schramm", "gauged"))
    p.add_argument("--weights", default="harmonic")
    p.add_argument("--family")
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--n", type=int, default=1, help="interval budget (modulus)")
    p.add_argument("--smax", type=int)
    p.add_argument("--minlen", type=int, default=1)
    p.add_argument("--qn", default="linear")
    p.add_argument("--delta", default="pow2")
    p.add_argument("--ncap", type=int, default=12)
    p.add_argument("--oracle-cap", type=int, default=ORACLE_CAP_DEFAULT)
    common(p)
    p.set_defaults(func=cmd_variation)

    p = sub.add_parser("criterion", help="run an embedding-criterion scan")
    p.add_argument("--theorem", required=True,
                   choices=("1.4", "1.5", "1.7", "1.8", "1.9"))
    p.add_argument("--lambda", default="harmonic")
    p.add_argument("--gamma", default="constant")
    p.add_argument("--family")
    p.add_argument("--phi", help="convex base config JSON (theorem 1.9)")
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--qn", default="linear")
    p.add_argument("--delta", default="pow2")
    p.add_argument("--ncap", type=int, default=20)
    p.add_argument("--second-part", action="store_true")
    p.add_argument("--csv", help="also write (n, a_n) plot data here")
    common(p)
    p.set_defaults(func=cmd_criterion)

    p = sub.add_parser("counterexample",
                       help="plan/build/certify a non-embedding witness")
    p.add_argument("--kind", required=True, choices=("lambda", "schramm"))
    p.add_argument("--lambda", default="harmonic")
    p.add_argument("--gamma", default="constant")
    p.add_argument("--family")
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--qn", default="const:1")
    p.add_argument("--delta", default="pow2")
    p.add_argument("--levels", type=int, default=3)
    for name, (base, coef) in PAPER_BASES.items():
        p.add_argument(f"--{name}-base", type=float, default=base,
                       help=f"{name}_n = {coef:g} * {name}_base^n")
    p.add_argument("--build", action="store_true")
    p.add_argument("--certify", action="store_true")
    p.add_argument("--witness-out")
    common(p)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("inequality", help="run a randomized inequality suite")
    p.add_argument("--suite", required=True,
                   choices=("master", "wu", "holder", "comparison"))
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--lambda", default="harmonic")
    p.add_argument("--gamma", default="constant")
    p.add_argument("--family", action="append", default=[])
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--q", type=float, default=1.0)
    common(p)
    p.set_defaults(func=cmd_inequality)

    p = sub.add_parser("norm", help="Luxemburg-style norm of a function")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--family", required=True)
    p.add_argument("--fa", type=float)
    p.add_argument("--oracle-cap", type=int, default=ORACLE_CAP_DEFAULT)
    common(p)
    p.set_defaults(func=cmd_norm)
    return parser


def main(argv=None):
    logging.basicConfig(level=os.environ.get("GBV_LOG", "WARNING").upper())
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HypothesisError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GbvError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
