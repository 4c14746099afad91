"""End-to-end CLI behaviour: commands, exit codes, report determinism."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import torelli
from torelli.cli import build_config, main, run_job
from torelli.config import ConfigError

BROKEN_PAIR = """
genus = 3
[subsurface left]
boundary = a1
pair = a2, b2
[subsurface right]
boundary = -a1
pair = a3, b3 + a2
[boundingpair bp]
side1 = left
side2 = right
[multivector top]
expr = a2^b1^a3
[args]
pair = bp
top = top
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        code, out, err = run(capsys, "act", "--fixture", "paper-figure-1")
        assert code == 0
        assert err == ""
        assert out.endswith("status: PASS\n")

    def test_identity_failure_is_one(self, capsys, tmp_path):
        """Per-side-valid but globally inconsistent pair: a failing verdict."""
        path = tmp_path / "broken.cfg"
        path.write_text(BROKEN_PAIR)
        code, out, err = run(capsys, "johnson", "--config", str(path))
        assert code == 1
        assert "FAIL johnson-cross-side-identity" in out
        assert out.endswith("status: FAIL\n")

    def test_act_on_broken_pair_is_undefined(self, capsys, tmp_path):
        """No Johnson element exists, so there is no variation to report."""
        path = tmp_path / "broken.cfg"
        path.write_text(BROKEN_PAIR)
        code, out, err = run(capsys, "act", "--config", str(path))
        assert code == 1
        assert err == ""
        assert "classification: UNDEFINED" in out
        assert "FAIL johnson-cross-side-identity" in out
        assert "variation" not in out
        assert out.endswith("status: FAIL\n")

    def test_input_errors_are_two(self, capsys, tmp_path):
        kappa2_zero = tmp_path / "kappa2.cfg"
        kappa2_zero.write_text("genus = 3\nkappa2 = 0\n")
        not_utf8 = tmp_path / "latin1.cfg"
        not_utf8.write_bytes(b"genus = 3\n# caf\xe9\n")
        cases = [
            ("act", "--fixture", "no-such-fixture"),
            ("act", "--genus", "1"),
            ("forms", "--genus", "3"),  # no fixture, so args.form is missing
            ("act", "--fixture", "paper-figure-1", "--genus", "4"),
            ("act", "--fixture", "paper-figure-1", "--kappa2", "0"),
            ("act", "--config", str(tmp_path / "missing.cfg")),
            ("act", "--genus", "0"),
            ("act", "--fixture", "paper-figure-1", "--kappa1", "1/0"),
            ("act", "--fixture", "paper-figure-1", "--kappa1", "x"),
            ("act", "--config", str(tmp_path)),
            ("act", "--config", str(not_utf8)),
            ("act", "--fixture", "paper-figure-1", "--kappa1", "1e5"),
            ("act", "--config", str(kappa2_zero)),
        ]
        for argv in cases:
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert err.startswith("error:"), argv
            assert out == "", argv
        assert "line 2: kappa2 must be nonzero" in err  # the last case
        # flags are checked while the config is built, not when the job runs
        for flags in ({"fixture": "no-such-fixture"}, {"genus": 1}, {"genus": 0},
                      {"fixture": "paper-figure-1", "genus": 4},
                      {"fixture": "paper-figure-1", "kappa2": "0"},
                      {"fixture": "paper-figure-1", "kappa1": "1/0"},
                      {"fixture": "paper-figure-1", "kappa1": "x"},
                      {"fixture": "paper-figure-1", "kappa1": "1e5"}):
            with pytest.raises(ConfigError):
                build_config("act", **flags)

    @pytest.mark.parametrize("text, message", [
        ("genus = 3\n[args]\nround = 1\n", "line 3: unknown key 'round' in args section"),
        ("genus = 3\n[args]\nrounds = 2\nrounds = 3\n", "line 4: duplicate key 'rounds'"),
        ("genus = 3\nkappa1 = 1e5\n", "line 2: kappa1 must be a rational, got '1e5'"),
        ("genus = 3\n[multivector m]\nexpr = a1^b1^a2^b2\n",
         "line 3: degree must be 1, 2 or 3, got 4"),
        ("genus = 3\n[multivector m]\ndegree = 4\nexpr = 0\n",
         "line 3: degree must be 1, 2 or 3, got 4"),
        ("genus = 3\n[multivector m]\ndegree = 4\ncoeffs = 1\n",
         "line 3: degree must be 1, 2 or 3, got 4"),
        ("genus = 3\n[multivector m]\ndegree = 4\nexpr = a1\n",
         "line 3: degree must be 1, 2 or 3, got 4"),
    ], ids=["unknown-args-key", "duplicate-args-key", "exponent-rational",
            "expr-degree-four", "zero-expr-degree-four", "coeffs-degree-four",
            "expr-a1-degree-four"])
    def test_config_line_errors_are_two(self, capsys, tmp_path, text, message):
        path = tmp_path / "job.cfg"
        path.write_text(text)
        code, out, err = run(capsys, "invariants", "--config", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_program_bug_exits_three(self, capsys, monkeypatch):
        """An exception that is not a ConfigError is a bug, not bad input."""
        def broken_audit(space):
            raise ValueError("injected bug")
        monkeypatch.setattr(torelli.cli, "dimension_audit", broken_audit)
        code, out, err = run(capsys, "audit")
        assert code == 3
        assert out == ""
        assert err.startswith("Traceback (most recent call last):")
        assert err.rstrip().endswith("ValueError: injected bug")

    def test_non_primitive_top_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad_top.cfg"
        path.write_text("[multivector bad]\nexpr = a1^b1^a2\n[args]\ntop = bad\n")
        code, out, err = run(capsys, "act", "--fixture", "paper-figure-1",
                             "--config", str(path))
        assert code == 2
        assert "not primitive" in err


class TestArgsLines:
    """An error about an [args] entry from a file names the entry's line."""

    @pytest.mark.parametrize("command, fixture, text, message", [
        ("johnson", "paper-figure-1", "[args]\npair = nope\n",
         "line 2: unknown boundingpair 'nope' (from args.pair)"),
        ("johnson", None, "genus = 3\n[args]\nsubsurface = nope\n",
         "line 3: unknown subsurface 'nope' (from args.subsurface)"),
        ("decompose", "paper-figure-1", "[multivector m]\nexpr = a1^b1\n[args]\ninput = m\n",
         "line 4: multivector 'm' has degree 2, need 3"),
        ("act", "paper-figure-1", "[multivector bad]\nexpr = a1^b1^a2\n[args]\ntop = bad\n",
         "line 4: multivector 'bad' is not primitive; "),
        ("forms", "paper-figure-1", "[args]\nform = psi\n",
         "line 2: unknown form 'psi'; choose omega3, q2 or phi"),
        ("invariants", None, "genus = 3\n[args]\nrounds = many\n",
         "line 3: rounds must be an integer, got 'many'"),
        ("invariants", None, "genus = 3\n[args]\n\nrounds = 0\n",
         "line 4: rounds must be positive"),
    ], ids=["unknown-pair", "unknown-subsurface", "wrong-degree", "top-not-primitive",
            "unknown-form", "rounds-not-integer", "rounds-not-positive"])
    def test_error_names_line(self, tmp_path, command, fixture, text, message):
        path = tmp_path / "job.cfg"
        path.write_text(text)
        cfg = build_config(command, config_path=str(path), fixture=fixture)
        with pytest.raises(ConfigError) as info:
            run_job(cfg)
        assert str(info.value).startswith(message)
        assert info.value.line == int(message.split()[1].rstrip(":"))

    def test_fixture_default_has_no_line(self, tmp_path):
        """The fixture's own `top = top` entry has no line to name."""
        path = tmp_path / "job.cfg"
        path.write_text("[multivector top]\nexpr = a1^b1^a2\n")
        cfg = build_config("act", config_path=str(path), fixture="paper-figure-1")
        with pytest.raises(ConfigError) as info:
            run_job(cfg)
        assert str(info.value).startswith("multivector 'top' is not primitive; ")
        assert info.value.line is None


class TestCommands:
    def test_decompose_classifies_fixture_input(self, capsys):
        code, out, _ = run(capsys, "decompose", "--fixture", "paper-figure-1")
        assert code == 0
        assert "classification: MIXED" in out
        assert "primitive_part: 1/2 a1^a2^b2 - 1/2 a1^a3^b3" in out

    def test_forms_evaluates_phi_on_fixture(self, capsys):
        code, out, _ = run(capsys, "forms", "--fixture", "paper-figure-1")
        assert code == 0
        assert "value: -a2·a3" in out
        assert "PASS phi-symmetric-on-inputs" in out

    def test_johnson_golden_string(self, capsys):
        code, out, _ = run(capsys, "johnson", "--fixture", "paper-figure-1")
        assert code == 0
        assert "johnson: 1/2 a1^a2^b2 - 1/2 a1^a3^b3" in out
        assert "PASS johnson-cross-side-identity" in out

    def test_johnson_genus4_golden_string(self, capsys):
        code, out, _ = run(capsys, "johnson", "--fixture", "genus4-split")
        assert code == 0
        assert "johnson: 1/3 a1^a2^b2 + 1/3 a1^a3^b3 - 2/3 a1^a4^b4" in out

    def test_johnson_single_subsurface_mode(self, capsys, tmp_path):
        path = tmp_path / "side.cfg"
        path.write_text("genus = 3\n[subsurface s]\nboundary = a1\npair = a2, b2\n"
                        "[args]\nsubsurface = s\n")
        code, out, _ = run(capsys, "johnson", "--config", str(path))
        assert code == 0
        assert "johnson_element: a1^a2^b2" in out
        assert "PASS johnson-contraction-genus-multiple" in out

    def test_act_nontrivial_on_fixture(self, capsys):
        code, out, _ = run(capsys, "act", "--fixture", "paper-figure-1")
        assert code == 0
        assert "classification: NONTRIVIAL" in out
        assert "sym2: a2·a3" in out
        assert "scalar: 0" in out
        assert "PASS action-unipotent-on-input" in out

    def test_act_kappa_overrides(self, capsys):
        code, out, _ = run(capsys, "act", "--fixture", "paper-figure-1",
                           "--kappa2", "-5")
        assert code == 0
        assert "sym2: 5 a2·a3" in out
        code, out, _ = run(capsys, "act", "--fixture", "paper-figure-1",
                           "--kappa1", "1")
        assert code == 0
        assert "scalar: 0" in out  # omega3(j, top) happens to vanish here

    def test_audit_reports_ranks(self, capsys):
        code, out, _ = run(capsys, "audit", "--genus", "4")
        assert code == 0
        assert "quotient_dim: 48" in out
        assert "sub_dim: 37" in out
        assert "total_dim: 85" in out

    def test_invariants_runs_suite(self, capsys, tmp_path):
        path = tmp_path / "few.cfg"
        path.write_text("[args]\nrounds = 2\n")
        code, out, _ = run(capsys, "invariants", "--genus", "3", "--seed", "5",
                           "--config", str(path))
        assert code == 0
        assert "PASS johnson-respec-invariant" in out
        assert "PASS phi-transvection-equivariant" in out
        assert out.endswith("status: PASS\n")


class TestRankDisagreement:
    """Disagreeing primitive ranks fail verdicts; the report is still printed."""

    @pytest.fixture(autouse=True)
    def disagreeing_ranks(self, monkeypatch):
        monkeypatch.setattr(torelli.h3model, "primitive_rank_two_ways",
                            lambda space: (13, 14))

    def test_audit_fails_both_verdicts(self, capsys):
        code, out, err = run(capsys, "audit", "--genus", "3")
        assert code == 1
        assert err == ""
        assert "projector_rank: 13" in out
        assert "isotropic_rank: 14" in out
        assert "quotient_dim: 14" in out
        assert "FAIL primitive-rank-two-ways-agree" in out
        assert "FAIL primitive-rank-matches-count" in out
        assert out.endswith("status: FAIL\n")

    def test_invariants_fails_rank_check(self, capsys, tmp_path):
        path = tmp_path / "one.cfg"
        path.write_text("[args]\nrounds = 1\n")
        code, out, _ = run(capsys, "invariants", "--genus", "3", "--config", str(path))
        assert code == 1
        assert ("FAIL primitive-rank-two-ways  "
                "(projector 13, isotropic span 14, count 14)") in out
        assert "PASS omega3-primitive-gram-rank" in out


class TestNoDenseHomologyPath:
    """No command builds a dense matrix: bounding pairs are checked by basis-vector images."""

    @pytest.fixture(autouse=True)
    def dense_path_raises(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense matrix path called")
        monkeypatch.setattr(torelli.forms.Transvection, "matrix", refuse)
        monkeypatch.setattr(torelli.linalg, "mat_mul", refuse)
        monkeypatch.setattr(torelli.exterior.Multivector, "dense", refuse)

    @pytest.mark.parametrize("command", ["act", "johnson"])
    @pytest.mark.parametrize("fixture", ["paper-figure-1", "genus4-split"])
    def test_pair_commands_pass(self, command, fixture):
        report = run_job(build_config(command, fixture=fixture))
        assert report.passed
        assert "bounding-pair-trivial-on-homology" in {v.name for v in report.verdicts}

    def test_invariants_pass(self):
        verdicts = torelli.run_invariant_checks(3, 0, 2)
        assert all(v.passed for v in verdicts)
        assert "bounding-pair-trivial-on-homology" in {v.name for v in verdicts}


class TestReports:
    def test_json_is_valid_and_sorted(self, capsys):
        code, out, _ = run(capsys, "act", "--fixture", "paper-figure-1",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "PASS"
        assert data["outputs"]["classification"] == "NONTRIVIAL"
        assert data["outputs"]["variation"]["sym2"] == "a2·a3"
        assert list(data) == sorted(data)
        names = [v["name"] for v in data["verdicts"]]
        assert names == sorted(names)

    def test_reports_are_byte_deterministic(self, capsys):
        for fmt in ("text", "json"):
            outs = set()
            for _ in range(2):
                _, out, _ = run(capsys, "act", "--fixture", "paper-figure-1",
                                "--format", fmt)
                outs.add(out)
            assert len(outs) == 1

    def test_rationals_rendered_as_strings(self, capsys):
        _, out, _ = run(capsys, "johnson", "--fixture", "paper-figure-1",
                        "--format", "json")
        data = json.loads(out)
        assert data["outputs"]["johnson"] == "1/2 a1^a2^b2 - 1/2 a1^a3^b3"
        assert data["params"]["kappa2"] == "-1"


class TestConfigResolution:
    def test_config_extends_fixture(self, capsys, tmp_path):
        path = tmp_path / "override.cfg"
        path.write_text("[multivector other]\nexpr = a1^a2^b3\n[args]\ntop = other\n")
        code, out, _ = run(capsys, "act", "--fixture", "paper-figure-1",
                           "--config", str(path))
        assert code == 0
        assert "top: other" in out

    def test_flag_seed_beats_config(self, tmp_path):
        path = tmp_path / "seeded.cfg"
        path.write_text("genus = 3\nseed = 4\n[args]\nrounds = 1\n")
        cfg = build_config("invariants", config_path=str(path), seed=9)
        assert cfg.seed == 9
        cfg = build_config("invariants", config_path=str(path))
        assert cfg.seed == 4

    def test_default_genus_is_three(self):
        assert build_config("audit").require_space().genus == 3

    def test_run_job_rejects_unknown_command(self):
        cfg = build_config("audit")
        cfg.command = "paint"
        with pytest.raises(ConfigError, match="unknown command"):
            run_job(cfg)

    def test_config_command_ignored_for_flag_command(self, capsys, tmp_path):
        """The subcommand on argv wins; config `command =` is advisory."""
        path = tmp_path / "cmd.cfg"
        path.write_text("genus = 3\ncommand = act\n")
        code, out, _ = run(capsys, "audit", "--config", str(path))
        assert code == 0
        assert "command: audit" in out


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_console_script(name: str) -> EntryPoint:
    """The `[project.scripts]` entry `name` of this repo's pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert name in scripts, f"no {name!r} entry in [project.scripts]"
    return EntryPoint(name, scripts[name], group="console_scripts")


def write_launcher(ep: EntryPoint, bin_dir: Path) -> None:
    """Write the launcher an installer writes for a console-script entry."""
    bin_dir.mkdir()
    script = bin_dir / ep.name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {ep.module} import {ep.attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({ep.attr}())\n")
    script.chmod(0o755)


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        """The declared `torelli` script, run by name, reaches `main` and
        hands its exit status to the shell."""
        write_launcher(declared_console_script("torelli"), tmp_path / "bin")
        src_dir = Path(torelli.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join([str(tmp_path / "bin"), env.get("PATH", "")])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src_dir), env.get("PYTHONPATH")]))

        proc = subprocess.run(["torelli", "audit", "--genus", "3"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "quotient_dim: 14" in proc.stdout

        proc = subprocess.run(["torelli", "act", "--fixture", "no-such-fixture"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:")

    @pytest.mark.skipif(shutil.which("torelli") is None,
                        reason="torelli console script not installed")
    def test_console_script_on_path(self):
        proc = subprocess.run(["torelli", "audit", "--genus", "3"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "quotient_dim: 14" in proc.stdout

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "from torelli.cli import entrypoint; entrypoint()",
             "johnson", "--fixture", "paper-figure-1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "status: PASS" in proc.stdout
