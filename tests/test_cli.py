import argparse
import json
import os
import time
from pathlib import Path

import pytest

import fcfam.cli
import fcfam.enumfam
from fcfam import fcsolve
from fcfam.cli import build_parser, dispatch
from fcfam.fcsolve import certificate_to_dict, is_fc
from fcfam.setfam import Family, format_family, no_singletons_family


@pytest.fixture
def fam_file(tmp_path):
    path = tmp_path / "three_set.fam"
    path.write_text("n=3\n1,2,3\n")
    return str(path)


class TestIsfcAndVerify:
    def test_nonfc_certificate_roundtrip(self, fam_file, tmp_path, capsys):
        cert_path = str(tmp_path / "cert.json")
        assert dispatch(["isfc", fam_file, "--out", cert_path]) == 0
        data = json.loads(open(cert_path).read())
        assert data["kind"] == "non-fc"
        assert dispatch(["verify", cert_path]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        # --out writes byte for byte what stdout prints
        assert dispatch(["isfc", fam_file]) == 0
        assert open(cert_path).read() == capsys.readouterr().out

    def test_verify_detects_tamper(self, fam_file, tmp_path, capsys):
        cert_path = str(tmp_path / "cert.json")
        dispatch(["isfc", fam_file, "--out", cert_path])
        data = json.loads(open(cert_path).read())
        data["farkas"]["lambda"] = "1/1"
        open(cert_path, "w").write(json.dumps(data))
        assert dispatch(["verify", cert_path]) == 1

    def test_verify_structural_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert dispatch(["verify", str(bad)]) == 2

    def test_vfc_flag(self, fam_file, tmp_path, capsys):
        cert_path = str(tmp_path / "cert.json")
        assert dispatch(["isfc", fam_file, "--v", "no-singletons", "--out", cert_path]) == 0
        data = json.loads(open(cert_path).read())
        assert data["kind"] == "fc"
        assert data["domain"] != "full"

    def test_symmetry_over_a_caller_domain(self, tmp_path, capsys):
        # transposing 3 and 4 fixes the family but not the domain P([5])
        # minus {3}, {4}: the verdict is the one without --symmetry
        fam = tmp_path / "fam.fam"
        fam.write_text("n=5\n1,3,4\n2,4,5\n")
        dom = tmp_path / "dom.fam"
        dom.write_text(format_family(Family.from_masks(5, (m for m in range(32) if m not in (4, 8)))))
        cert_path = tmp_path / "cert.json"
        for flags in ([], ["--symmetry"]):
            assert dispatch(["isfc", str(fam), "--v", str(dom), "--out", str(cert_path), *flags]) == 0
            assert json.loads(cert_path.read_text())["kind"] == "fc"
            assert dispatch(["verify", str(cert_path)]) == 0
            assert "PASS" in capsys.readouterr().out

    def test_fc_certificate_needs_its_proof(self, tmp_path, capsys):
        path = tmp_path / "k4_n6.fam"
        path.write_text("n=6\n1,2,3,4\n1,2,3,5\n1,2,4,6\n1,3,5,6\n2,4,5,6\n3,4,5,6\n1,2,5,6\n")
        out = tmp_path / "out"
        assert dispatch(["isfc", str(path), "-o", str(out)]) == 0
        cert_path = out / "certificate.json"
        data = json.loads(cert_path.read_text())
        assert data["kind"] == "fc" and data["proof"]
        assert dispatch(["verify", str(cert_path)]) == 0
        assert "PASS" in capsys.readouterr().out
        del data["proof"]
        cert_path.write_text(json.dumps(data))
        assert dispatch(["verify", str(cert_path)]) == 2
        assert "no separation proof" in capsys.readouterr().err

    def test_gappy_family_compacted(self, tmp_path, capsys):
        path = tmp_path / "gap.fam"
        path.write_text("2,5\n5,7\n")
        assert dispatch(["isfc", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n"] == 3

    @pytest.mark.parametrize("spec", ["no-singletons", "file"])
    def test_domain_refused_for_a_compacted_family(self, spec, tmp_path, capsys):
        # V-FC is defined only for universe [n], so a family that leaves out
        # element 3 of [4] is not compacted under --v but refused
        path = tmp_path / "gap.fam"
        path.write_text("n=4\n1,2\n2,4\n")
        if spec == "file":
            spec = str(tmp_path / "v.fam")
            Path(spec).write_text(format_family(no_singletons_family(4)))
        assert dispatch(["isfc", str(path), "--v", spec]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "keeps only elements [1, 2, 4]" in err


class TestBatchCommands:
    def test_upperbound_prints_value(self, capsys):
        assert dispatch(["upperbound", "-k", "4", "-n", "9", "--base-n", "8", "--base-m", "12"]) == 0
        assert capsys.readouterr().out.strip() == "21"

    def test_upperbound_bad_arguments(self, capsys):
        assert dispatch(["upperbound", "-k", "4", "-n", "8", "--base-n", "8", "--base-m", "12"]) == 2

    def test_getnfc_writes_results_dir(self, tmp_path, capsys):
        out = str(tmp_path / "results")
        assert dispatch(["getnfc", "-n", "4", "-k", "3", "-m", "2", "-o", out]) == 0
        fam_text = open(os.path.join(out, "nfc_n4_k3_m2.fam")).read()
        assert "1,2,3" in fam_text
        manifest = json.loads(open(os.path.join(out, "manifest_n4_k3_m2.json")).read())
        assert manifest["count"] == 1
        assert len(manifest["certificates"]) == 1
        assert dispatch(["verify", os.path.join(out, manifest["certificates"][0])]) == 0

    def test_getnfc_files_do_not_depend_on_jobs(self, tmp_path):
        # the certificates come from pool workers at --jobs 2
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert dispatch(["getnfc", "-n", "6", "-k", "4", "-m", "4", "--jobs", jobs,
                             "-o", str(out)]) == 0
            files = {p.name: p.read_text() for p in out.iterdir()}
            manifest = json.loads(files.pop("manifest_n6_k4_m4.json"))
            del manifest["seconds"]
            outputs.append((files, manifest))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][1]["certificates"]) == 8

    def test_fcvalue(self, capsys):
        assert dispatch(["fcvalue", "-k", "3", "-n", "4"]) == 0
        out, err = capsys.readouterr()
        assert "FC(3,4) = 3" in out
        assert "m=2: 1 Non-FC classes" in err.splitlines()

    def test_fcvalue_past_the_complete_family(self, capsys):
        # C(6,5) = 6 sets is the complete family, and it is Non-FC: a larger
        # --max-m must not turn the empty levels beyond it into a value
        assert dispatch(["fcvalue", "-k", "5", "-n", "6", "--max-m", "10"]) == 0
        assert "FC(5,6) is undefined" in capsys.readouterr().out

    def test_fcvalue_needs_a_positive_max_m(self, capsys):
        assert dispatch(["fcvalue", "-k", "4", "-n", "6", "--max-m", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "m_max must be >= 1" in err

    @pytest.mark.parametrize("cmd", ["fcvalue", "vfcvalue"])
    def test_value_commands_take_no_output_dir(self, cmd, tmp_path, capsys):
        # they write nothing, so -o is refused rather than ignored
        assert dispatch([cmd, "-k", "5", "-n", "6", "-o", str(tmp_path / "out")]) == 2
        assert "unrecognized arguments: -o" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_vfcvalue(self, capsys):
        assert dispatch(["vfcvalue", "-k", "5", "-n", "6", "--v", "no-singletons"]) == 0
        out, err = capsys.readouterr()
        assert "FC_V(5,6) = 3" in out
        # the same per-level line as fcvalue, and nothing decided below [6]
        assert "m=2: 1 Non-FC classes" in err.splitlines()
        assert "getNFC(5,5,1): 1 classes kept undecided below [6]" in err.splitlines()

    def test_vfcvalue_domain_file(self, tmp_path, capsys):
        path = tmp_path / "v.fam"
        path.write_text(format_family(no_singletons_family(6)))
        assert dispatch(["vfcvalue", "-k", "5", "-n", "6", "--v", str(path)]) == 0
        assert "FC_V(5,6) = 3" in capsys.readouterr().out

    def test_vfcvalue_needs_a_symmetric_domain(self, tmp_path, capsys):
        # every subset of [6] but {1}: union-closed, not invariant under S_6
        path = tmp_path / "v.fam"
        path.write_text(format_family(Family.from_masks(6, (m for m in range(64) if m != 1))))
        assert dispatch(["vfcvalue", "-k", "5", "-n", "6", "--v", str(path)]) == 2
        assert "symmetric domain" in capsys.readouterr().err

    def test_lexscan(self, capsys, tmp_path):
        assert dispatch(["lexscan", "-k", "4", "-n", "5", "-o", str(tmp_path)]) == 0
        assert "m = 5" in capsys.readouterr().out
        assert dispatch(["verify", str(tmp_path / "lex_fc_k4_n5_m5.json")]) == 0

    def test_translates(self, capsys):
        assert dispatch(["translates", "-n", "4", "--r", "0,1,2"]) == 0
        out = capsys.readouterr().out
        assert "degree 6" in out and "m = 32" in out and "FC(3,16) = 9" in out

    def test_canon(self, tmp_path, capsys):
        path = tmp_path / "f.fam"
        path.write_text("n=3\n2,3\n1,3\n")
        assert dispatch(["canon", str(path)]) == 0
        first = capsys.readouterr().out
        path.write_text("n=3\n1,2\n1,3\n")
        assert dispatch(["canon", str(path)]) == 0
        assert capsys.readouterr().out == first

    def test_orbits(self, tmp_path, capsys):
        path = tmp_path / "f.fam"
        path.write_text("n=3\n1,2\n2,3\n")
        assert dispatch(["orbits", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == ["1,3", "2"]

    def test_output_dir_env(self, fam_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FCFAM_OUTPUT_DIR", str(tmp_path / "envout"))
        assert dispatch(["isfc", fam_file]) == 0
        assert os.path.exists(tmp_path / "envout" / "certificate.json")

    def test_usage_error_exit_code(self):
        assert dispatch(["fcvalue", "-k", "3"]) == 2
        assert dispatch(["nonsense"]) == 2


class TestTimeLimit:
    def test_timeout_exits_1(self, capsys):
        assert dispatch(["getnfc", "-n", "4", "-k", "3", "-m", "2", "--time-limit", "1e-9"]) == 1
        assert capsys.readouterr().err.startswith("timeout:")

    def test_getnfc_certificates_keep_the_limit(self, tmp_path, monkeypatch):
        # getnfc -o writes the certificates of the enumeration's own decisions,
        # each bounded by --time-limit, and decides no family a second time
        deadlines = []
        original = fcfam.enumfam.is_fc

        def recording(fam, **kwargs):
            deadlines.append(kwargs.get("deadline"))
            return original(fam, **kwargs)

        def second_decision(fam, **kwargs):
            raise AssertionError("getnfc decided a family outside the enumeration")

        monkeypatch.setattr(fcfam.enumfam, "is_fc", recording)
        monkeypatch.setattr(fcfam.cli, "is_fc", second_decision)
        out = tmp_path / "results"
        before = time.monotonic()
        assert dispatch(["getnfc", "-n", "6", "-k", "4", "-m", "4", "--time-limit", "60",
                         "-o", str(out)]) == 0
        after = time.monotonic()
        assert deadlines
        assert all(d is not None and before + 60 <= d <= after + 60 for d in deadlines)
        manifest = json.loads((out / "manifest_n6_k4_m4.json").read_text())
        assert manifest["count"] == len(manifest["certificates"]) == 8
        for name in manifest["certificates"]:
            fam = fcsolve.load_certificate(str(out / name)).family
            fresh = is_fc(fam, warm_start=True)
            assert (out / name).read_text() == json.dumps(certificate_to_dict(fresh), indent=1) + "\n"

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "soon"])
    def test_nonpositive_limit_rejected(self, fam_file, value):
        assert dispatch(["getnfc", "-n", "4", "-k", "3", "-m", "2", "--time-limit", value]) == 2
        assert dispatch(["isfc", fam_file, "--time-limit", value]) == 2

    def test_commands_without_decisions_take_no_limit(self):
        assert dispatch(["translates", "-n", "4", "--r", "0,1,2", "--time-limit", "5"]) == 2

    def test_lexscan_timeout_exits_1(self, capsys):
        assert dispatch(["lexscan", "-k", "4", "-n", "5", "--time-limit", "1e-9"]) == 1
        assert capsys.readouterr().err.startswith("timeout:")


def _readme_commands() -> list[list[str]]:
    """The `fcfam ...` lines of the README's command blocks, split into words."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for heading in ("## Command line", "## Longer computations"):
        block = text.split(heading, 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        commands += [line.split("#", 1)[0].split() for line in block.splitlines()
                     if line.startswith("fcfam ")]
    return commands


class TestReadme:
    def test_documented_flags_are_accepted(self):
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        commands = _readme_commands()
        assert len(commands) == 15
        unknown = []
        for _, cmd, *words in commands:
            accepted = subparsers.choices[cmd]._option_string_actions
            flags = [w.strip("[]") for w in words if w.strip("[]").startswith("-")]
            unknown += [(cmd, f) for f in flags if f not in accepted]
        assert unknown == []
        assert {cmd for _, cmd, *_ in commands} == set(subparsers.choices)
