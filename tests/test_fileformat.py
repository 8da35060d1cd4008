import pytest

import helpers
from helpers import same_independence
from matroid_kappa import (
    ParseError,
    free_matroid,
    parse_label_set,
    parse_matroid_file,
    parse_matroid_text,
    set_to_jsonable,
    uniform_matroid,
)
from matroid_kappa.cli import parse_and_run

U24_TEXT = """\
type: uniform
elements: a b c d
k: 2
"""

TRI_TEXT = """\
# triangle
type: graphic
elements: e1 e2 e3
edges: e1=u-v e2=v-w e3=w-u
"""

GF2_TEXT = """\
type: linear-gf2
elements: a b c
matrix:
1 0 1
0 1 1
"""

EXPLICIT_TEXT = """\
type: explicit
elements: a b
independent:
{}
a
b
"""


class TestParsing:
    def test_uniform(self):
        m = parse_matroid_text(U24_TEXT)
        assert same_independence(m, uniform_matroid("abcd", 2))

    def test_graphic(self):
        m = parse_matroid_text(TRI_TEXT)
        assert same_independence(m, helpers.triangle())

    def test_gf2(self):
        m = parse_matroid_text(GF2_TEXT)
        assert m.rank() == 2
        assert not m.is_independent(m.ground.full())

    def test_explicit(self):
        m = parse_matroid_text(EXPLICIT_TEXT)
        assert same_independence(m, uniform_matroid("ab", 1))

    def test_comments_and_blanks_ignored(self):
        m = parse_matroid_text("\n# hi\n" + U24_TEXT + "\n\n")
        assert m.rank() == 2

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("", 1, "empty"),
            ("elements: a b\nk: 1\n", 1, "type"),
            ("type: banana\nelements: a\n", 1, "unknown type"),
            ("type: uniform\nelements: a b\nk: x\n", 3, "integer"),
            ("type: uniform\nelements: a a\nk: 1\n", 2, "duplicate"),
            ("type: graphic\nelements: e1\nedges: e1=uv\n", 3, "u-v"),
            (
                "type: graphic\nelements: a b c\nedges: a=u-v-w b=v-w-u c=u-v\n",
                3,
                "edge 'a=u-v-w' has a '-' in a vertex name",
            ),
            ("type: graphic\nelements: e1\nedges: e2=u-v\n", 3, "match"),
            (
                "type: linear-gf2\nelements: a b\nmatrix:\n1 0 2\n",
                4,
                "0 and 1",
            ),
            (
                "type: linear-gf2\nelements: a b\nmatrix:\n1\n",
                4,
                "entries",
            ),
            ("type: explicit\nelements: a\nindependent:\nz\n", 4, "unknown"),
            ("type: explicit\nelements: a\nindependent:\na\n", 3, "matroid"),
            (
                "type: graphic\nelements: a\nk: 1\nedges: a=u-v\n",
                3,
                "type graphic does not read key 'k'",
            ),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line, fragment):
        with pytest.raises(ParseError) as err:
            parse_matroid_text(text)
        assert err.value.line_no == line
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "text",
        [
            "type: graphic\nelements: a,b c\nedges: a,b=u-v c=v-u\n",
            "type: explicit\nelements: a,b c\nindependent:\n{}\nc\n",
        ],
        ids=["graphic", "explicit"],
    )
    def test_label_with_a_comma_is_refused(self, tmp_path, capsys, text):
        """No set can name such a label: ``--set=a,b`` reads two labels."""
        with pytest.raises(ParseError) as err:
            parse_matroid_text(text)
        assert err.value.line_no == 2
        assert "label 'a,b' contains ','" in str(err.value)
        path = tmp_path / "comma.matroid"
        path.write_text(text)
        assert parse_and_run(["kappa", "--set=a,b", str(path)]) == 1
        assert "line 2: label 'a,b'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "label, reason",
        [("{}", "reads as the empty set"), ("@b", "starts with '@'")],
        ids=["braces", "at-sign"],
    )
    @pytest.mark.parametrize(
        "template",
        [
            "type: graphic\nelements: {lab} c\nedges: {lab}=u-v c=v-u\n",
            "type: explicit\nelements: {lab} c\nindependent:\n{{}}\nc\n",
        ],
        ids=["graphic", "explicit"],
    )
    def test_label_that_cannot_be_named_alone_is_refused(
        self, tmp_path, capsys, template, label, reason
    ):
        """``--set={}`` is the empty set and ``--set=@b`` reads the file b,
        so neither could name such a label."""
        text = template.format(lab=label)
        with pytest.raises(ParseError) as err:
            parse_matroid_text(text)
        assert err.value.line_no == 2
        assert f"label {label!r} {reason}" in str(err.value)
        path = tmp_path / "label.matroid"
        path.write_text(text)
        assert parse_and_run(["kappa", f"--set={label}", str(path)]) == 1
        assert f"line 2: label {label!r}" in capsys.readouterr().err


class TestDerivedFiles:
    def test_dual_minor_sum(self, tmp_path):
        (tmp_path / "u24.matroid").write_text(U24_TEXT)
        (tmp_path / "tri.matroid").write_text(TRI_TEXT)
        (tmp_path / "dual.matroid").write_text(
            "type: file-derived\nbase: u24.matroid\napply: dual\n"
        )
        (tmp_path / "minor.matroid").write_text(
            "type: file-derived\nbase: u24.matroid\napply: minor\ncontract: a\ndelete: b\n"
        )
        (tmp_path / "sum.matroid").write_text(
            "type: file-derived\nbase: u24.matroid\napply: sum\nwith: tri.matroid\n"
        )
        d = parse_matroid_file(str(tmp_path / "dual.matroid"))
        assert same_independence(d, uniform_matroid("abcd", 2))
        mnr = parse_matroid_file(str(tmp_path / "minor.matroid"))
        assert same_independence(mnr, uniform_matroid("cd", 1))
        s = parse_matroid_file(str(tmp_path / "sum.matroid"))
        assert s.rank() == 4

    def test_self_reference_rejected(self, tmp_path):
        path = tmp_path / "self.matroid"
        path.write_text("type: file-derived\nbase: self.matroid\napply: dual\n")
        with pytest.raises(ParseError) as err:
            parse_matroid_file(str(path))
        assert err.value.line_no == 2

    def test_two_file_cycle_rejected(self, tmp_path):
        (tmp_path / "a.matroid").write_text(
            "type: file-derived\nbase: b.matroid\napply: dual\n"
        )
        (tmp_path / "b.matroid").write_text(
            "type: file-derived\nbase: u24.matroid\napply: sum\nwith: a.matroid\n"
        )
        (tmp_path / "u24.matroid").write_text(U24_TEXT)
        with pytest.raises(ParseError) as err:
            parse_matroid_file(str(tmp_path / "a.matroid"))
        assert err.value.line_no == 4
        assert "a.matroid" in err.value.reason
        # the cycle is reported on the line of b.matroid that closes it
        assert err.value.path == "b.matroid"

    def test_nested_parse_error_names_its_file(self, tmp_path):
        (tmp_path / "bad.matroid").write_text("type: uniform\nelements: a b\nk: zap\n")
        (tmp_path / "top.matroid").write_text(
            "type: file-derived\nbase: bad.matroid\napply: dual\n"
        )
        (tmp_path / "sum.matroid").write_text(
            "type: file-derived\nbase: u24.matroid\napply: sum\nwith: top.matroid\n"
        )
        (tmp_path / "u24.matroid").write_text(U24_TEXT)
        with pytest.raises(ParseError) as err:
            parse_matroid_file(str(tmp_path / "bad.matroid"))
        assert err.value.path is None
        assert str(err.value) == "line 3: k must be an integer, got 'zap'"
        for top in ("top.matroid", "sum.matroid"):
            with pytest.raises(ParseError) as err:
                parse_matroid_file(str(tmp_path / top))
            assert (err.value.path, err.value.line_no) == ("bad.matroid", 3)
            assert str(err.value) == (
                "bad.matroid: line 3: k must be an integer, got 'zap'"
            )

    def test_shared_base_is_not_a_cycle(self, tmp_path):
        (tmp_path / "u24.matroid").write_text(U24_TEXT)
        (tmp_path / "ab.matroid").write_text(
            "type: file-derived\nbase: u24.matroid\napply: minor\ndelete: c d\n"
        )
        (tmp_path / "cd.matroid").write_text(
            "type: file-derived\nbase: u24.matroid\napply: minor\ndelete: a b\n"
        )
        (tmp_path / "sum.matroid").write_text(
            "type: file-derived\nbase: ab.matroid\napply: sum\nwith: cd.matroid\n"
        )
        m = parse_matroid_file(str(tmp_path / "sum.matroid"))
        assert same_independence(
            m, parse_matroid_text("type: uniform\nelements: a b c d\nk: 4\n")
        )

    def test_cycle_through_symlink_rejected(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "link.matroid").symlink_to("../a.matroid")
        (tmp_path / "a.matroid").write_text(
            "type: file-derived\nbase: sub/link.matroid\napply: dual\n"
        )
        with pytest.raises(ParseError) as err:
            parse_matroid_file(str(tmp_path / "a.matroid"))
        assert (err.value.path, err.value.line_no) == (None, 2)
        assert "link.matroid" in err.value.reason
        assert "refers back" in err.value.reason

    def test_two_paths_to_one_file_are_not_a_cycle(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        (d / "u24.matroid").write_text(U24_TEXT)
        (d / "ab.matroid").write_text(
            "type: file-derived\nbase: ../d/u24.matroid\napply: minor\ndelete: c d\n"
        )
        (d / "cd.matroid").write_text(
            "type: file-derived\nbase: u24.matroid\napply: minor\ndelete: a b\n"
        )
        (d / "sum.matroid").write_text(
            "type: file-derived\nbase: ab.matroid\napply: sum\nwith: ./cd.matroid\n"
        )
        m = parse_matroid_file(str(d / "sum.matroid"))
        assert same_independence(m, free_matroid("abcd"))

    def test_hard_link_cycle_rejected(self, tmp_path):
        # b.matroid is the same file as a.matroid, so the cycle closes on
        # the line of a.matroid that names it
        (tmp_path / "a.matroid").write_text(
            "type: file-derived\nbase: b.matroid\napply: dual\n"
        )
        (tmp_path / "b.matroid").hardlink_to(tmp_path / "a.matroid")
        with pytest.raises(ParseError) as err:
            parse_matroid_file(str(tmp_path / "a.matroid"))
        assert (err.value.path, err.value.line_no) == (None, 2)
        assert "b.matroid" in err.value.reason
        assert "refers back" in err.value.reason

    @pytest.mark.parametrize(
        "derived,line,reason",
        [
            (
                "apply: minor\ncontrat: a\n",
                4,
                "type file-derived with apply: minor does not read key 'contrat'",
            ),
            (
                "apply: dual\ncontract: a\n",
                4,
                "type file-derived with apply: dual does not read key 'contract'",
            ),
            (
                "apply: dual\nwith: tri.matroid\n",
                4,
                "type file-derived with apply: dual does not read key 'with'",
            ),
        ],
    )
    def test_key_the_operation_does_not_read_rejected(self, tmp_path, derived, line, reason):
        (tmp_path / "tri.matroid").write_text(TRI_TEXT)
        path = tmp_path / "derived.matroid"
        path.write_text("type: file-derived\nbase: tri.matroid\n" + derived)
        with pytest.raises(ParseError) as err:
            parse_matroid_file(str(path))
        assert (err.value.path, err.value.line_no, err.value.reason) == (None, line, reason)
        assert parse_and_run(["rank", str(path)]) == 1

    def test_missing_pieces_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            parse_matroid_text("type: file-derived\napply: dual\n")
        with pytest.raises(ParseError):
            parse_matroid_text("type: file-derived\nbase: x\n")


class TestSetsRoundTrip:
    def test_emitted_sets_parse_back(self):
        m = free_matroid(["a", "b", "c"])
        s = m.ground.set_of(["c", "a"])
        emitted = set_to_jsonable(s)
        assert parse_label_set(m.ground, ",".join(emitted)) == s

    def test_empty_set_round_trips(self):
        m = free_matroid("ab")
        assert parse_label_set(m.ground, "{}").is_empty
