import argparse
import contextlib
import io
import json
import os
import pathlib
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from matroid_kappa import cli, windows
from matroid_kappa.cli import parse_and_run

U24 = "type: uniform\nelements: a b c d\nk: 2\n"
TRI = "type: graphic\nelements: e1 e2 e3\nedges: e1=u-v e2=v-w e3=w-u\n"
TWO_TRI = (
    "type: graphic\nelements: a1 a2 a3 b1 b2 b3\n"
    "edges: a1=p-q a2=q-r a3=r-p b1=s-t b2=t-u b3=u-s\n"
)


def grid_file(tmp_path, n: int) -> str:
    """A description file of the n x n grid graph, edges row by row."""
    edges = []
    for r in range(n):
        for c in range(n):
            if c + 1 < n:
                edges.append(f"h{r}_{c}=p{r}q{c}-p{r}q{c + 1}")
            if r + 1 < n:
                edges.append(f"v{r}_{c}=p{r}q{c}-p{r + 1}q{c}")
    labels = " ".join(edge.split("=")[0] for edge in edges)
    path = tmp_path / f"grid{n}.matroid"
    path.write_text(f"type: graphic\nelements: {labels}\nedges: {' '.join(edges)}\n")
    return str(path)


@pytest.fixture
def u24_file(tmp_path):
    path = tmp_path / "u24.matroid"
    path.write_text(U24)
    return str(path)


@pytest.fixture
def tri_file(tmp_path):
    path = tmp_path / "tri.matroid"
    path.write_text(TRI)
    return str(path)


def run(capsys, argv):
    code = parse_and_run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerbs:
    def test_kappa(self, capsys, u24_file):
        code, out, _ = run(capsys, ["kappa", "--set=a,b", u24_file])
        assert code == 0
        assert out.strip() == "kappa = 2"

    def test_kappa_between_json(self, capsys, u24_file):
        code, out, _ = run(
            capsys, ["--output=json", "kappa-between", "--x=a", "--y=b", u24_file]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "matroid-kappa/1"
        assert doc["kappa"] == 1

    def test_rank_and_circuits(self, capsys, tri_file):
        code, out, _ = run(capsys, ["rank", tri_file])
        assert code == 0 and "rank(E) = 2" in out
        code, out, _ = run(capsys, ["circuits", tri_file])
        assert code == 0 and "{e1,e2,e3}" in out

    def test_components_and_connected(self, capsys, tmp_path):
        path = tmp_path / "two.matroid"
        path.write_text(TWO_TRI)
        code, out, _ = run(capsys, ["components", str(path)])
        assert code == 0 and "components (2)" in out
        code, out, _ = run(capsys, ["connected", str(path)])
        assert code == 0 and "false" in out

    def test_dual_and_minor(self, capsys, u24_file):
        code, out, _ = run(capsys, ["dual", u24_file])
        assert code == 0 and "rank = 2" in out
        code, out, _ = run(
            capsys, ["minor", "--contract=a", "--delete=b", u24_file]
        )
        assert code == 0 and "rank = 1" in out

    def test_sum(self, capsys, tmp_path):
        a = tmp_path / "a.matroid"
        a.write_text("type: uniform\nelements: a b\nk: 1\n")
        b = tmp_path / "b.matroid"
        b.write_text("type: uniform\nelements: c d\nk: 1\n")
        code, out, _ = run(capsys, ["sum", str(a), str(b)])
        assert code == 0 and "rank = 2" in out

    def test_separation(self, capsys, tmp_path):
        path = tmp_path / "two.matroid"
        path.write_text(TWO_TRI)
        code, out, _ = run(capsys, ["separation", "--k=1", str(path)])
        assert code == 0 and "kappa = 0" in out

    def test_check_axioms(self, capsys, u24_file):
        code, out, _ = run(capsys, ["check-axioms", u24_file])
        assert code == 0
        assert "ok: true" in out

    def test_link_with_trace(self, capsys, tmp_path, u24_file):
        trace = tmp_path / "trace.jsonl"
        code, out, _ = run(
            capsys,
            ["link", "--x=a", "--y=b", "--constructive", f"--trace={trace}", u24_file],
        )
        assert code == 0 and "achieved = 1" in out
        entries = [json.loads(line) for line in trace.read_text().splitlines()]
        assert entries and all("stage" in e for e in entries)

    def test_family_stabilization(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "family",
                "--id=double-ladder",
                "--window=5",
                "kappa-between",
                "--x=rung[0]",
                "--y=rung[3]",
                "--certificate=rung:0",
            ],
        )
        assert code == 0
        assert "certified: 1" in out

    @pytest.mark.parametrize(
        "verb, line",
        [("kappa-between", "certified: 1 (by rung:0)"), ("link", "window 2, achieved = 1")],
    )
    def test_two_window_range_certifies(self, capsys, verb, line):
        """Windows 2 and 3 both give 1: the last value, met by the bound of
        rung:0, is certified however short the range."""
        argv = ["family", "--id=double-ladder", "--window=3", "--certificate=rung:0",
                verb, "--x=rung[0]", "--y=rung[3]"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert line in out.splitlines()

    @pytest.mark.parametrize("verb", ["kappa-between", "link"])
    def test_certificate_missing_x_is_refused_on_a_short_range(self, capsys, verb):
        argv = ["family", "--id=double-ladder", "--window=3", "--certificate=rung:5",
                verb, "--x=rung[0]", "--y=rung[3]"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert "certificate 'rung:5' does not contain X" in err

    @pytest.mark.parametrize(
        "query",
        [
            # X is not inside the certificate's side: exit 1, after the
            # labels are read
            ["kappa-between", "--x={}", "--y=rung[3]", "--certificate=rung:0"],
            ["--window=5", "kappa-between", "--x={}", "--y=rung[3]", "--certificate=cut:1"],
        ],
    )
    def test_family_labels_are_stripped(self, capsys, query):
        def outcome(x):
            argv = ["family", "--id=double-ladder"]
            return run(capsys, argv + [arg.format(x) for arg in query])

        spaced = outcome("rung[0], rung[1]")
        assert spaced == outcome("rung[0],rung[1]")
        assert "not a ladder element" not in spaced[2]

    def test_family_windowed_link(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "--output=json",
                "family",
                "--id=infinite-uniform(2)",
                "--window=7",
                "link",
                "--x=a1,a2",
                "--y=a3,a4",
                "--certificate=prefix:2",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["achieved"] == 2
        assert doc["result"]["deletes_outside_window"]

    def test_family_window_info(self, capsys):
        code, out, _ = run(
            capsys,
            ["family", "--id=double-ladder", "--window=0", "window-info"],
        )
        assert code == 0
        assert "rank = 3" in out

    def test_family_window_info_reads_budget(self, capsys):
        argv = ["family", "--id=double-ladder", "--window=0", "window-info"]
        code, out, _ = run(capsys, argv[:-1] + ["--budget=0", argv[-1]])
        assert code == 0
        assert "circuits (" not in out
        assert "circuits: not listed (circuit enumeration over 4 elements exceeds budget 0)" in out
        code, out, _ = run(capsys, argv)
        assert "circuits (1):" in out and "not listed" not in out

    @pytest.mark.parametrize(
        "verb, key, size",
        [(["dual"], "dual", 3), (["minor", "--contract=e1"], "minor", 2), (["sum"], "sum", 7)],
    )
    def test_summary_over_the_circuit_budget_names_the_refusal(
        self, capsys, tri_file, u24_file, verb, key, size
    ):
        files = [tri_file, u24_file] if verb == ["sum"] else [tri_file]
        code, out, _ = run(capsys, ["--output=json", *verb, "--budget=1", *files])
        assert code == 0
        summary = json.loads(out)[key]
        assert "circuits" not in summary
        assert summary["circuits_omitted"] == (
            f"circuit enumeration over {size} elements exceeds budget 1"
        )

    def test_family_default_window_fits_the_element_budget(self, capsys):
        # omega-tree window 8 holds 510 elements, over the budget of 256
        argv = ["family", "--id=omega-tree", "kappa-between", "--x=e[0]", "--y=e[1]"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert "window values: 1:0 2:0 3:0 4:0 5:0 6:0 7:0" in out
        code, _, err = run(capsys, argv[:2] + ["--window=8"] + argv[2:])
        assert code == 2
        assert "window 8 holds 510 elements, over the window budget 256" in err

    def test_repeated_flags_do_not_carry_over(self, monkeypatch):
        seen = []
        monkeypatch.setattr(
            cli, "_dispatch", lambda args: seen.append(args.certificate) or 0
        )
        for certs in (["rung:0", "rung:1"], ["rung:2"]):
            argv = ["family", "--id=double-ladder", "kappa-between"]
            assert parse_and_run(argv + [f"--certificate={c}" for c in certs]) == 0
        assert seen == [["rung:0", "rung:1"], ["rung:2"]]

    def test_set_from_file(self, capsys, tmp_path, u24_file):
        labels = tmp_path / "labels.txt"
        labels.write_text("a\nb\n")
        code, out, _ = run(capsys, ["kappa", f"--set=@{labels}", u24_file])
        assert code == 0 and "kappa = 2" in out


class TestExitCodes:
    def test_overlapping_minor_is_domain_error(self, capsys, u24_file):
        code, _, err = run(
            capsys, ["minor", "--contract=a", "--delete=a", u24_file]
        )
        assert code == 1
        assert "overlap" in err

    def test_overlapping_sides_are_domain_error(self, capsys, u24_file):
        code, out, err = run(capsys, ["kappa-between", "--x=a,b", "--y=b,c", u24_file])
        assert code == 1 and out == ""
        assert "the two sides overlap" in err

    @pytest.mark.parametrize(
        "verb", [["window-info", "--window=0"], ["kappa-between", "--x=a1", "--y=a2"]]
    )
    def test_negative_uniform_rank_is_domain_error(self, capsys, verb):
        code, out, err = run(capsys, ["family", "--id=infinite-uniform(-1)", *verb])
        assert code == 1 and out == ""
        assert err == "error: uniform rank bound must be non-negative\n"

    def test_budget_exhaustion_is_capacity_error(self, capsys, tmp_path):
        labels = " ".join(f"x{i}" for i in range(20))
        path = tmp_path / "big.matroid"
        path.write_text(f"type: uniform\nelements: {labels}\nk: 3\n")
        # the circuit enumeration covers 20 elements
        code, _, err = run(capsys, ["circuits", "--budget=16", str(path)])
        assert code == 2
        assert "budget" in err

    def test_budgeted_verb_keeps_library_defaults(self, capsys, tmp_path):
        labels = " ".join("abcdefghijklmnopqr")
        path = tmp_path / "u2_18.matroid"
        path.write_text(f"type: uniform\nelements: {labels}\nk: 2\n")
        argv = ["circuits", str(path)]
        # 18 elements: the circuit enumeration's own default (20) admits them
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert "circuits (816):" in out
        # an explicit budget bounds every scan the verb runs
        code, _, err = run(capsys, argv[:-1] + ["--budget=16", argv[-1]])
        assert code == 2
        assert "budget 16" in err

    def test_unknown_flag_rejected(self, capsys, u24_file):
        code, _, err = run(capsys, ["kappa", "--set=a", "--bogus", u24_file])
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--budget=3"],
            ["kappa", "--set=a", "--budget=3"],
            ["components", "--budget=3"],
            ["connected", "--budget=3"],
            ["kappa-between", "--x=a", "--y=b", "--budget=3"],
            ["family", "--id=double-ladder", "--window=4", "--budget=1",
             "kappa-between", "--x=rung[0]", "--y=rung[2]", "--certificate=rung:0"],
            ["family", "--id=double-ladder", "--window=4", "--budget=1",
             "link", "--x=rung[0]", "--y=rung[2]", "--certificate=rung:0"],
            ["link", "--x=a", "--y=b", "--budget=3"],
            ["link", "--constructive", "--x=a", "--y=b", "--budget=3"],
            ["separation", "--k=1", "--budget=3"],
        ],
    )
    def test_unread_budget_rejected(self, capsys, u24_file, argv):
        if argv[0] != "family":
            argv = argv + [u24_file]
        code, _, err = run(capsys, argv)
        assert code == 1
        assert "budget" in err

    @pytest.mark.parametrize(
        "elements, kind, argv, message",
        [
            (21, "uniform", ["circuits"], "circuit enumeration over 21 elements exceeds budget 20"),
            (4, "uniform", ["circuits", "--budget=3"], "circuit enumeration over 4 elements exceeds budget 3"),
            (17, "uniform", ["separation", "--k=2"], "separation scan over 17 elements exceeds budget 16"),
            (4, "uniform", ["separation", "--k=2", "--budget=3"], "separation scan over 4 elements exceeds budget 3"),
            (13, "uniform", ["check-axioms"], "axiom check over 13 elements exceeds budget 12"),
            (4, "uniform", ["check-axioms", "--budget=3"], "axiom check over 4 elements exceeds budget 3"),
            (13, "explicit", ["rank"], "axiom check over 13 elements exceeds budget 12"),
        ],
    )
    def test_budget_messages(self, capsys, tmp_path, elements, kind, argv, message):
        labels = [f"x{i}" for i in range(elements)]
        body = "k: 2\n" if kind == "uniform" else "independent:\n{}\n" + "\n".join(labels) + "\n"
        path = tmp_path / "m.matroid"
        path.write_text(f"type: {kind}\nelements: {' '.join(labels)}\n{body}")
        assert run(capsys, argv + [str(path)]) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "flag, env, message",
        [
            ("--budget=-1", None, "--budget must be non-negative, got -1"),
            (None, "-1", "MATROID_KAPPA_BUDGET must be non-negative, got '-1'"),
        ],
    )
    @pytest.mark.parametrize("verb", [["separation", "--k=2"], ["circuits"], ["dual"]])
    def test_negative_budget_is_a_domain_error(
        self, capsys, u24_file, monkeypatch, verb, flag, env, message
    ):
        if env is not None:
            monkeypatch.setenv("MATROID_KAPPA_BUDGET", env)
        argv = verb + ([flag] if flag else []) + [u24_file]
        assert run(capsys, argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["family", "--id=infinite-uniform(2)", "--window=5000", "window-info"],
            ["family", "--id=infinite-uniform(2500)", "--window=5000", "kappa-between",
             "--x=a1", "--y=a2"],
            ["family", "--id=infinite-uniform(2500)", "--window=5000", "link",
             "--x=a1", "--y=a2", "--certificate=prefix:1"],
        ],
    )
    def test_over_budget_window_is_not_built(self, capsys, monkeypatch, argv):
        built = []
        real = windows.uniform_matroid
        monkeypatch.setattr(
            windows, "uniform_matroid", lambda labels, k: built.append(len(labels)) or real(labels, k)
        )
        message = "error: window 5000 holds 5000 elements, over the window budget 256\n"
        assert run(capsys, argv) == (2, "", message)
        assert built == []

    @pytest.mark.parametrize("where", ["top", "base", "set"])
    def test_non_utf8_input_names_the_file(self, capsys, tmp_path, u24_file, where):
        bad = tmp_path / "bad.matroid"
        bad.write_bytes(b"type: uniform\nelements: a b\xff\nk: 1\n")
        top = tmp_path / "top.matroid"
        top.write_text("type: file-derived\nbase: bad.matroid\napply: dual\n")
        labels = tmp_path / "labels.txt"
        labels.write_bytes(b"a\n\xff\n")
        argv, named = {
            "top": (["rank", str(bad)], str(bad)),
            "base": (["rank", str(top)], os.path.join(str(tmp_path), "bad.matroid")),
            "set": (["kappa", f"--set=@{labels}", u24_file], str(labels)),
        }[where]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {named!r} is not UTF-8 text: invalid start byte at byte ")
        assert err.count("\n") == 1

    def test_self_referencing_file(self, capsys, tmp_path):
        path = tmp_path / "self.matroid"
        path.write_text("type: file-derived\nbase: self.matroid\napply: dual\n")
        code, _, err = run(capsys, ["rank", str(path)])
        assert code == 1
        assert "line 2" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["rank", "missing.matroid"])
        assert code == 1

    def test_parse_error_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.matroid"
        path.write_text("type: uniform\nelements: a b\nk: zap\n")
        code, _, err = run(capsys, ["rank", str(path)])
        assert code == 1
        assert "line 3" in err
        # an error inside a base: file names that file
        top = tmp_path / "top.matroid"
        top.write_text("type: file-derived\nbase: bad.matroid\napply: dual\n")
        code, _, err = run(capsys, ["rank", str(top)])
        assert code == 1
        assert err == "error: bad.matroid: line 3: k must be an integer, got 'zap'\n"

    def test_budget_env_and_flag(self, capsys, tmp_path, monkeypatch):
        labels = " ".join(f"x{i}" for i in range(19))
        path = tmp_path / "big.matroid"
        path.write_text(f"type: uniform\nelements: {labels}\nk: 2\n")
        monkeypatch.setenv("MATROID_KAPPA_BUDGET", "10")
        # the circuit enumeration covers all 19 elements
        argv = ["circuits"]
        code, _, err = run(capsys, argv + [str(path)])
        assert code == 2
        # the flag overrides the environment
        code, out, _ = run(capsys, argv + ["--budget=19", str(path)])
        assert code == 0

    def test_budget_env_read_only_by_budgeted_verbs(self, capsys, u24_file, monkeypatch):
        monkeypatch.setenv("MATROID_KAPPA_BUDGET", "zap")
        code, out, _ = run(capsys, ["kappa-between", "--x=a", "--y=b", u24_file])
        assert code == 0 and out.strip() == "kappa(X, Y) = 1"
        code, _, _ = run(
            capsys,
            ["family", "--id=double-ladder", "--window=4", "kappa-between",
             "--x=rung[0]", "--y=rung[2]", "--certificate=rung:0"],
        )
        assert code == 0
        code, _, err = run(capsys, ["circuits", u24_file])
        assert code == 1
        assert "MATROID_KAPPA_BUDGET" in err
        # link runs no budgeted scan in either mode, nor separation at k = 1
        for argv in (["link"], ["link", "--constructive"]):
            code, out, _ = run(capsys, argv + ["--x=a", "--y=b", u24_file])
            assert code == 0 and "achieved = 1" in out
        code, out, _ = run(capsys, ["separation", "--k=1", u24_file])
        assert code == 0 and out == "no separation found\n"

    def test_separation_at_k1_takes_any_size(self, capsys, tmp_path):
        # k = 1 reads the components, so no separation budget applies
        labels = " ".join(f"x{i}" for i in range(17))
        path = tmp_path / "u2_17.matroid"
        path.write_text(f"type: uniform\nelements: {labels}\nk: 2\n")
        assert run(capsys, ["separation", "--k=1", str(path)]) == (
            0, "no separation found\n", ""
        )
        grid = grid_file(tmp_path, 6)
        assert run(capsys, ["separation", "--k=1", grid]) == (
            0, "no separation found\n", ""
        )

    @pytest.mark.parametrize(
        "x, y, value",
        [("h1_1,v2_3", "h4_2,v3_4", 2), ("h1_1,v2_3,h2_1", "h4_2,v3_4,v4_1", 3)],
    )
    def test_constructive_link_on_a_grid(self, capsys, tmp_path, x, y, value):
        # 60 edges, over the circuit-enumeration budget: the construction
        # enumerates no circuits
        grid = grid_file(tmp_path, 6)
        code, out, _ = run(capsys, ["--output=json", "kappa-between", f"--x={x}", f"--y={y}", grid])
        assert code == 0 and json.loads(out)["kappa"] == value
        code, out, err = run(
            capsys, ["--output=json", "link", "--constructive", f"--x={x}", f"--y={y}", grid]
        )
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert result["achieved"] == result["target"] == value
        spec = result["spec"]
        assert len(spec["contract"]) + len(spec["delete"]) == 60 - 2 * x.count(",") - 2

    def test_readme_lists_the_verbs_without_budget(self):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        found = re.search(r"Verbs that run no budgeted scan have no `--budget`:(.*?)\.\s", readme, re.S)
        listed = {name for name in re.findall(r"`([^`]+)`", found.group(1)) if name[0] != "-"}
        (verbs,) = [
            action for action in cli._build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        without = {
            name for name, parser in verbs.choices.items()
            if "--budget" not in parser._option_string_actions
        }
        assert listed == without

    @pytest.mark.parametrize("fid", ["infinite-uniform(x)", "infinite-uniform()"])
    def test_malformed_family_id_is_domain_error(self, capsys, fid):
        code, _, err = run(capsys, ["family", f"--id={fid}", "--window=3", "window-info"])
        assert code == 1
        assert fid in err

    @pytest.mark.parametrize(
        "flag", ["--x=", "--y=rung[0]", "--plateau=0", "--certificate=bogus"]
    )
    def test_window_info_refuses_query_flags(self, capsys, flag):
        argv = ["family", "--id=double-ladder", "--window=1", flag, "window-info"]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert flag.split("=")[0] in err

    @pytest.mark.parametrize(
        "fid, cert, x, y",
        [
            ("double-ladder", "rung:x", "rung[0]", "rung[2]"),
            ("infinite-uniform(2)", "prefix:x", "a1", "a3"),
            ("infinite-uniform(2)", "prefix:", "a1", "a3"),
            ("double-ladder", "cut:x", "rung[0]", "rung[2]"),
            ("infinite-uniform(2)", "prefix:-1", "", "a2"),
        ],
    )
    def test_malformed_certificate_is_domain_error(self, capsys, fid, cert, x, y):
        argv = ["family", f"--id={fid}", "--window=3", f"--certificate={cert}",
                "kappa-between", f"--x={x}", f"--y={y}"]
        code, _, err = run(capsys, argv)
        assert code == 1
        assert repr(cert) in err


class TestFiniteSideCertificates:
    """A finite certificate side U is bounded by r(U), read in the first
    window that holds U; a side the family lacks, or that no window within
    budget holds, is refused before any window is solved."""

    @pytest.mark.parametrize(
        "fid, x, y, cert, values",
        [
            # U = {a1, a2, a3} is dependent in U(2, n): r(U) = 2, not 3
            ("infinite-uniform(2)", "a1,a2,a3", "a4,a5", "set:a1+a2+a3", "5:2 6:2 7:2 8:2"),
            # a1 is a loop of U(0, n): r({a1}) = 0, not 1
            ("infinite-uniform(0)", "a1", "a2", "singleton:a1", "2:0 3:0 4:0 5:0 6:0 7:0 8:0"),
        ],
    )
    def test_rank_bound_certifies_the_plateau(self, capsys, fid, x, y, cert, values):
        argv = ["family", f"--id={fid}", "--window=8", "kappa-between",
                f"--x={x}", f"--y={y}", f"--certificate={cert}"]
        first, plateau = values.split()[0].split(":")
        out = (f"family {fid}\nwindow values: {values}\nstable_at: {first}\n"
               f"certified: {plateau} (by {cert})\n")
        assert run(capsys, argv) == (0, out, "")

    @pytest.mark.parametrize(
        "fid, cert, x, y, message",
        [
            ("infinite-uniform(2)", "set:a1+zap", "a1", "a2",
             "certificate 'set:a1+zap': not a uniform-family element: 'zap'"),
            ("double-ladder", "singleton:", "rung[0]", "rung[2]",
             "certificate 'singleton:': not a ladder element: ''"),
            ("infinite-uniform(2)", "set:a0", "", "a2",
             "certificate 'set:a0': unknown element label 'a0'"),
            ("double-ladder-rungless", "singleton:rung[0]", "railT[0]", "railB[0]",
             "certificate 'singleton:rung[0]': this family has no rungs"),
        ],
    )
    def test_side_the_family_lacks_is_refused(self, capsys, fid, cert, x, y, message):
        argv = ["family", f"--id={fid}", f"--certificate={cert}",
                "kappa-between", f"--x={x}", f"--y={y}"]
        assert run(capsys, argv) == (1, "", f"error: {message}\n")

    def test_side_beyond_the_window_budget_is_not_built(self, capsys, monkeypatch):
        built = []
        real = windows.uniform_matroid
        monkeypatch.setattr(
            windows, "uniform_matroid", lambda labels, k: built.append(len(labels)) or real(labels, k)
        )
        argv = ["family", "--id=infinite-uniform(2)", "kappa-between",
                "--x=", "--y=a2", "--certificate=prefix:100000000"]
        message = "error: window 100000000 holds 100000000 elements, over the window budget 256\n"
        assert run(capsys, argv) == (2, "", message)
        assert built == []


# -- fuzzing ---------------------------------------------------------------
#
# The strategies mostly draw well-formed input, so that the commands reach
# the library, and break one part of it now and then.


def _sometimes(draw, good, bad):
    return draw(bad) if draw(st.integers(0, 5)) == 0 else draw(good)


def _label_sets(draw, labels, count: int) -> list[str]:
    """``count`` disjoint comma-separated label sets, now and then broken."""
    order = draw(st.permutations(labels))
    out = []
    for _ in range(count):
        size = draw(st.integers(0, min(3, len(order))))
        good = ",".join(order[:size])
        order = order[size:]
        out.append(_sometimes(draw, st.just(good), st.sampled_from(["zz", "{}", ",", "-"])))
    return out


def _description(draw, name: str, labels: list[str]) -> str:
    """A description file of one of the five types, now and then broken;
    a file-derived one builds on base.matroid (a b c d) and other.matroid
    (p q)."""
    kind = _sometimes(draw, st.sampled_from(
        ["uniform", "graphic", "linear-gf2", "explicit", "file-derived"]
    ), st.just("zap"))
    lines = [f"type: {kind}"]
    shown = _sometimes(draw, st.just(labels), st.just(labels + labels[:1]))
    if kind != "file-derived" or draw(st.integers(0, 5)) == 0:
        lines.append("elements: " + " ".join(shown))
    if kind == "uniform":
        k = _sometimes(draw, st.integers(0, 6).map(str), st.sampled_from(["-1", "x", ""]))
        lines.append(f"k: {k}")
    elif kind == "graphic":
        ends = st.sampled_from(["u-v", "v-w", "w-u", "u-u", "v-x", "x-u"])
        broken = st.sampled_from(["u", "u-v-w", "-"])
        edges = [f"{lab}={_sometimes(draw, ends, broken)}" for lab in labels]
        lines.append("edges: " + " ".join(edges))
    elif kind == "linear-gf2":
        lines.append("matrix:")
        for _ in range(draw(st.integers(0, 3))):
            row = [draw(st.sampled_from("01")) for _ in labels]
            lines.append(" ".join(_sometimes(draw, st.just(row), st.just(row + ["2"]))))
    elif kind == "explicit":
        # the independent sets of U(1, n), or a family the axioms reject
        lines.append("independent:")
        lines += ["{}"] + _sometimes(
            draw, st.just(labels), st.just(labels[:1] + [",".join(labels)])
        )
    elif kind == "file-derived":
        base = st.sampled_from([name, "missing.matroid"])
        lines.append(f"base: {_sometimes(draw, st.just('base.matroid'), base)}")
        apply = _sometimes(draw, st.sampled_from(["dual", "minor", "sum"]), st.just("zap"))
        lines.append(f"apply: {apply}")
        if apply == "minor":
            contract, delete = _label_sets(draw, list("abcd"), 2)
            lines += [f"contract: {contract}", f"delete: {delete}"]
        if apply == "sum":
            other = _sometimes(draw, st.just("other.matroid"), st.sampled_from([name, ""]))
            lines.append(f"with: {other}")
    if draw(st.integers(0, 7)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(
            ["# comment", "k: 2", "junk line", "type: uniform"]
        )))
    return "\n".join(lines) + "\n"


@st.composite
def _file_command(draw, workdir: str):
    path = os.path.join(workdir, "main.matroid")
    labels = [f"e{i}" for i in range(draw(st.integers(1, 5)))]
    text = _description(draw, "main.matroid", labels)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    if "file-derived" in text:
        labels = list("abcdpq")
    x, y = _label_sets(draw, labels, 2)
    number = st.sampled_from(["0", "1", "2", "3"])
    verb = draw(st.sampled_from([
        ["rank"], ["rank", f"--set={x}"], ["circuits"], ["dual"],
        ["minor", f"--contract={x}", f"--delete={y}"],
        ["components"], ["connected"], ["kappa", f"--set={x}"],
        ["kappa-between", f"--x={x}", f"--y={y}"],
        ["separation", f"--k={_sometimes(draw, number, st.just('-1'))}"],
        ["check-axioms"], ["sum"],
        ["link", f"--x={x}", f"--y={y}"],
        ["link", "--constructive", f"--x={x}", f"--y={y}"],
    ]))
    budgeted = ("circuits", "dual", "minor", "separation", "check-axioms")
    if verb[0] in budgeted and draw(st.booleans()):
        verb.append("--budget=" + _sometimes(draw, number, st.just("x")))
    if verb[0] == "sum":
        return verb + [path, os.path.join(workdir, "base.matroid")]
    return verb + [path]


_FAMILIES = {
    "double-ladder": (["rung[0]", "rung[2]", "railT[1]", "railB[0]"], ["rung:", "cut:"]),
    "double-ladder-rungless": (["railT[0]", "railT[3]", "railB[1]"], ["rails-split", "cut:"]),
    "infinite-uniform(2)": (["a1", "a2", "a3", "a4"], ["prefix:"]),
    "omega-tree": (["e[0]", "e[1]", "e[0.1]"], []),
}


@st.composite
def _family_command(draw):
    fid = _sometimes(draw, st.sampled_from(sorted(_FAMILIES)), st.sampled_from(
        ["infinite-uniform(0)", "infinite-uniform(-1)", "infinite-uniform(x)", "zap"]
    ))
    labels, templates = _FAMILIES.get(fid, (["a1", "rung[0]"], ["prefix:", "rung:"]))
    argv = ["family", f"--id={fid}"]
    small = st.sampled_from(["0", "1", "2", "3", "5"])
    if draw(st.booleans()):
        argv.append(f"--window={_sometimes(draw, small, st.sampled_from(['-1', 'x']))}")
    for _ in range(draw(st.integers(0, 2))):
        template = _sometimes(
            draw,
            st.sampled_from(templates + ["singleton:" + labels[0], "set:" + "+".join(labels[:2])]),
            st.sampled_from(["rung:", "prefix:", "cut:", "rails-split", "zap:"]),
        )
        if template in ("rung:", "prefix:", "cut:"):
            bad = st.sampled_from(["-1", "x", ""])
            template += _sometimes(draw, st.sampled_from(["0", "1", "2"]), bad)
        argv.append("--certificate=" + template)
    argv.append(draw(st.sampled_from(["kappa-between", "link", "window-info"])))
    for flag, side in zip(("--x", "--y"), _label_sets(draw, labels, 2)):
        if draw(st.integers(0, 7)):
            argv.append(f"{flag}={side}")
    return argv


class TestFuzz:
    """Every command line ends in a documented exit code, never a traceback."""

    @staticmethod
    def _exit_code(argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            return parse_and_run(argv)

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_description_files(self, data):
        with tempfile.TemporaryDirectory() as workdir:
            with open(os.path.join(workdir, "base.matroid"), "w", encoding="utf-8") as fh:
                fh.write(U24)
            with open(os.path.join(workdir, "other.matroid"), "w", encoding="utf-8") as fh:
                fh.write("type: uniform\nelements: p q\nk: 1\n")
            argv = data.draw(_file_command(workdir))
            if data.draw(st.booleans()):
                argv = ["--output=json"] + argv
            assert self._exit_code(argv) in (0, 1, 2, 70)

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(argv=_family_command(), json_output=st.booleans())
    def test_family_flags(self, argv, json_output):
        if json_output:
            argv = ["--output=json"] + argv
        # 70 means an internal invariant broke: bad input must never reach it
        assert self._exit_code(argv) in (0, 1, 2)


class TestDeterminism:
    def test_repeated_invocations_are_byte_identical(self, capsys, u24_file):
        outputs = []
        for _ in range(2):
            code, out, _ = run(
                capsys, ["--output=json", "link", "--x=a", "--y=b", u24_file]
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_json_sets_round_trip(self, capsys, u24_file):
        code, out, _ = run(capsys, ["--output=json", "circuits", u24_file])
        doc = json.loads(out)
        from matroid_kappa import GroundSet, parse_label_set

        ground = GroundSet("abcd")
        for labels in doc["circuits"]:
            got = parse_label_set(ground, ",".join(labels))
            assert list(got) == labels
