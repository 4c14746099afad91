"""Command-line front end.

Subcommands: decompose, forms, johnson, act, audit, invariants.  Inputs
come from --fixture and/or --config (the config extends the fixture);
flags override scalar settings through `config.set_top_level`, the rule
config lines obey.  Reports go to stdout as deterministic text or JSON.
Exit codes: 0 all verdicts pass, 1 an identity check failed, 2 malformed
input (a ConfigError), 3 internal error (traceback on stderr).
"""

from __future__ import annotations

import argparse
import sys

from .checks import _DEFAULT_ROUNDS, run_invariant_checks
from .config import (ConfigError, JobConfig, config_from_fixture, parse_config,
                     set_top_level)
from .exterior import (Multivector, contraction3, is_primitive, project_primitive,
                       split_primitive)
from .forms import omega3, phi, q2
from .h3model import GradedH3Element, act, dimension_audit
from .johnson import (FIXTURE_NAMES, bounding_pair_trivial_on_homology,
                      johnson_element, johnson_pair)
from .render import render_canonical
from .report import ReportDocument, Verdict

def _named_multivector(cfg: JobConfig, key: str, degree: int) -> tuple[str, Multivector]:
    name, x = cfg.named(key, "multivector")
    if x.degree != degree:
        raise cfg.arg_error(key, f"multivector {name!r} has degree {x.degree}, need {degree}")
    return name, x


def _new_report(cfg: JobConfig) -> ReportDocument:
    return ReportDocument(
        command=cfg.command, genus=cfg.require_space().genus,
        params={"kappa1": render_canonical(cfg.kappa1),
                "kappa2": render_canonical(cfg.kappa2), "seed": cfg.seed})


def _run_decompose(cfg: JobConfig) -> ReportDocument:
    report = _new_report(cfg)
    name, x = _named_multivector(cfg, "input", 3)
    prim, w, residual = split_primitive(x)
    if x.is_zero():
        kind = "ZERO"
    elif prim.is_zero():
        kind = "IN-DELTA-V"
    elif w.is_zero():
        kind = "PRIMITIVE"
    else:
        kind = "MIXED"
    report.inputs = {"input": name, "value": render_canonical(x)}
    report.outputs = {
        "primitive_part": render_canonical(prim),
        "residual_vector": render_canonical(w),
        "delta_wedge_part": render_canonical(residual),
        "classification": kind,
    }
    report.verdicts = [
        Verdict("primitive-part-contraction-vanishes",
                contraction3(prim).is_zero()),
        Verdict("decomposition-reconstructs-input", prim + residual == x),
        Verdict("projector-idempotent-on-input", project_primitive(prim) == prim),
    ]
    return report


# form name -> (input degree, verdict on swapping the inputs).  The name is
# also the pairing's name in this module, looked up when the job runs.
_FORMS = {"omega3": (3, "omega3-antisymmetric-on-inputs"),
          "q2": (2, "q2-symmetric-on-inputs"),
          "phi": (3, "phi-symmetric-on-inputs")}


def _run_forms(cfg: JobConfig) -> ReportDocument:
    report = _new_report(cfg)
    form = cfg.arg("form")
    if form not in _FORMS:
        raise cfg.arg_error("form", f"unknown form {form!r}; choose omega3, q2 or phi")
    degree, verdict = _FORMS[form]
    pairing = globals()[form]
    lname, left = _named_multivector(cfg, "left", degree)
    rname, right = _named_multivector(cfg, "right", degree)
    report.inputs = {"form": form,
                     "left": lname, "left_value": render_canonical(left),
                     "right": rname, "right_value": render_canonical(right)}
    value = pairing(left, right)
    swapped = -value if form == "omega3" else value
    report.outputs = {"value": render_canonical(value)}
    report.verdicts = [Verdict(verdict, pairing(right, left) == swapped)]
    return report


def _johnson_pair_body(cfg: JobConfig, report: ReportDocument):
    """Shared by johnson and act: render the pair's record and its verdicts.

    Returns the primitive Johnson element, or None when the cross-side
    identity fails (the verdicts then record the failure).
    """
    name, b = cfg.named("pair", "boundingpair")
    jp = johnson_pair(b)
    report.inputs.update({
        "pair": name,
        "boundary": render_canonical(b.side1.d),
        "side_genera": [b.side1.genus, b.side2.genus],
    })
    report.outputs.update({
        "side1_element": render_canonical(jp.side1),
        "side2_element": render_canonical(jp.side2),
        "d_wedge_delta": render_canonical(jp.d_wedge_delta),
        "johnson": render_canonical(jp.primitive1),
    })
    report.verdicts.extend([
        Verdict("johnson-cross-side-identity", jp.cross_side_identity,
                "j(side1) - j(side2) = d ^ delta"),
        Verdict("johnson-projections-agree", jp.projections_agree),
        Verdict("johnson-element-primitive", is_primitive(jp.primitive1)),
        Verdict("bounding-pair-trivial-on-homology", bounding_pair_trivial_on_homology(b)),
    ])
    return jp.primitive1 if jp.cross_side_identity and jp.projections_agree else None


def _run_johnson(cfg: JobConfig) -> ReportDocument:
    report = _new_report(cfg)
    if "pair" in cfg.args:
        _johnson_pair_body(cfg, report)
        return report
    name, s = cfg.named("subsurface", "subsurface")
    j = johnson_element(s)
    report.inputs = {"subsurface": name, "boundary": render_canonical(s.d),
                     "genus_of_side": s.genus}
    report.outputs = {"johnson_element": render_canonical(j),
                      "contraction": render_canonical(contraction3(j))}
    report.verdicts = [
        Verdict("johnson-contraction-genus-multiple",
                contraction3(j) == s.genus * s.d,
                "contraction3(j) = genus(side) d"),
    ]
    return report


def _run_act(cfg: JobConfig) -> ReportDocument:
    report = _new_report(cfg)
    params = cfg.params
    tname, top = _named_multivector(cfg, "top", 3)
    if not is_primitive(top):
        raise cfg.arg_error("top", f"multivector {tname!r} is not primitive; "
                            "decompose it first and act with the primitive part")
    report.inputs = {"top": tname, "top_value": render_canonical(top)}
    j = _johnson_pair_body(cfg, report)
    if j is None:
        report.outputs["classification"] = "UNDEFINED"
        return report
    m = GradedH3Element.from_top(top)
    moved = act(j, m, params)
    var = moved - m
    twice = act(j, moved, params)
    doubled = act(j + j, m, params)
    report.outputs.update({
        "variation": {"scalar": render_canonical(var.scalar),
                      "sym2": render_canonical(var.sym2),
                      "top": render_canonical(var.top)},
        "classification": "NONTRIVIAL" if not var.sym2.is_zero() else "TRIVIAL",
    })
    report.verdicts.extend([
        Verdict("variation-fixes-top", var.top.is_zero()),
        Verdict("action-unipotent-on-input", twice == doubled,
                "acting twice equals acting by the doubled element"),
    ])
    return report


def _run_audit(cfg: JobConfig) -> ReportDocument:
    report = _new_report(cfg)
    a = dimension_audit(cfg.require_space())
    report.inputs = {}
    report.outputs = {k: v for k, v in a.as_dict().items() if k != "genus"}
    report.verdicts = [
        Verdict("primitive-rank-two-ways-agree", a.projector_rank == a.isotropic_rank,
                f"projector {a.projector_rank}, isotropic span {a.isotropic_rank}"),
        Verdict("primitive-rank-matches-count", a.projector_rank == a.quotient_dim,
                f"C(2g,3) - 2g = {a.quotient_dim}"),
    ]
    return report


def _run_invariants(cfg: JobConfig) -> ReportDocument:
    report = _new_report(cfg)
    rounds = cfg.args.get("rounds", str(_DEFAULT_ROUNDS))
    try:
        rounds = int(rounds)
    except ValueError:
        raise cfg.arg_error("rounds", f"rounds must be an integer, got {rounds!r}") from None
    if rounds < 1:
        raise cfg.arg_error("rounds", "rounds must be positive")
    report.inputs = {"seed": cfg.seed, "rounds": rounds}
    report.verdicts = run_invariant_checks(genus=report.genus, seed=cfg.seed,
                                           rounds=rounds)
    return report


# command -> (handler, help), in the order `--help` lists them
COMMANDS = {
    "decompose": (_run_decompose, "split a 3-form into primitive and delta-wedge parts"),
    "forms": (_run_forms, "evaluate omega3, q2 or phi on named inputs"),
    "johnson": (_run_johnson, "Johnson element of a subsurface or bounding pair"),
    "act": (_run_act, "variation of a lifted top class under a bounding pair"),
    "audit": (_run_audit, "dimension bookkeeping of the graded model"),
    "invariants": (_run_invariants, "run the randomized identity suite"),
}


def run_job(cfg: JobConfig) -> ReportDocument:
    """Dispatch a resolved JobConfig to its command handler."""
    if cfg.command not in COMMANDS:
        raise ConfigError(f"unknown command {cfg.command!r}; "
                          f"choose one of {', '.join(COMMANDS)}")
    return COMMANDS[cfg.command][0](cfg)


def build_config(command: str, config_path: str | None = None,
                 fixture: str | None = None, genus: int | None = None,
                 seed: int | None = None, kappa1=None, kappa2=None) -> JobConfig:
    """Resolve fixture, config file and flag overrides into one JobConfig."""
    cfg = config_from_fixture(fixture) if fixture else JobConfig()
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {config_path!r}: {exc}") from None
        cfg = parse_config(text, base=cfg)
    for key, value in (("genus", genus), ("seed", seed), ("kappa1", kappa1),
                       ("kappa2", kappa2), ("command", command)):
        if value is not None:
            set_top_level(cfg, key, value)
    if cfg.space is None:
        set_top_level(cfg, "genus", 3)
    return cfg


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", metavar="PATH", help="job config file")
    p.add_argument("--fixture", metavar="NAME",
                   help=f"built-in configuration ({', '.join(FIXTURE_NAMES)})")
    p.add_argument("--genus", help="ambient genus (default 3)")
    p.add_argument("--seed", help="seed for randomized checks")
    p.add_argument("--kappa1", metavar="Q", help="scalar-shear coefficient, rational")
    p.add_argument("--kappa2", metavar="Q", help="sym2-shear coefficient, rational")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   dest="fmt", help="report format")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torelli",
        description="Exact computations with primitive 3-forms, Johnson elements "
                    "of bounding pairs, and the graded model they act on.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_, help_text) in COMMANDS.items():
        _add_common_flags(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_config(args.command, config_path=args.config,
                           fixture=args.fixture, genus=args.genus,
                           seed=args.seed, kappa1=args.kappa1, kappa2=args.kappa2)
        report = run_job(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        sys.excepthook(*sys.exc_info())
        return 3
    sys.stdout.write(report.to_json() if args.fmt == "json" else report.to_text())
    return 0 if report.passed else 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
