"""The INI reader against configparser, which stays here as its oracle."""

import configparser
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rspool.config import ConfigError, load_experiment, parse_ini

from tests.test_cli import SMALL_CELL

ROOT = Path(__file__).resolve().parent.parent


def oracle(text: str):
    """configparser's reading of `text` as the commands read files before
    the reader replaced it, or None where configparser rejects the text;
    with the parser itself, whose defaults hold a [DEFAULT] section."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                   interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error:
        return None, cp
    return {s: dict(cp.items(s, raw=True)) for s in cp.sections()}, cp


def reader(text: str):
    """The reader's sections, or its error message."""
    try:
        return parse_ini(text)
    except ValueError as exc:
        return str(exc)


INDENTS = st.sampled_from(["", "", " ", "  ", "\t"])
NAMES = st.one_of(st.sampled_from(["DEFAULT", "default", "a b", "x]y", "[", "a=b"]),
                  st.text(alphabet="abAB.", min_size=1, max_size=4))
KEYS = st.one_of(st.sampled_from(["Key", "KEY ", "a b", "%z"]),
                 st.text(alphabet="abcABC._", min_size=1, max_size=4))
WORDS = st.text(alphabet="ab1.% []=:;#\t", max_size=8)
COMMENTS = st.sampled_from(["", "", " ; c", "\t# c", ";x", "#x", " # a ; b",
                            " ;", "x ;y #z", "a;b ;c #d", "; [s]"])


# every strategy that `header` and `lines` draw from, built once: hypothesis
# spends more time building a strategy than drawing from it
TAILS = st.sampled_from(["", "", "x", "]", " z"])
FORMS = st.sampled_from(["header"] + ["key"] * 8 + ["blank", "comment"] * 2
                        + ["continuation", "junk", "fuzz"])
AROUND = st.sampled_from(["", " ", "\t"])
DELIMITERS = st.sampled_from(["=", ":"])
COMMENT_MARKS = st.sampled_from([";", "#"])
JUNK = st.sampled_from(["junk", "=x", ":", "[", "[]", "k", "]"])
FUZZ = st.text(alphabet=" \t[]=:;#aK.\r\x0c ", max_size=12)


def header(draw, indent):
    tail = draw(TAILS)
    return f"{indent}[{draw(NAMES)}]{tail}{draw(COMMENTS)}"


@st.composite
def lines(draw):
    """One line: mostly keys, with blank and comment lines, headers, and
    now and then a continuation, junk or fuzzed line."""
    indent = draw(INDENTS)
    form = draw(FORMS)
    if form == "header":
        return header(draw, indent)
    if form == "key":
        around = draw(AROUND)
        delimiter = draw(DELIMITERS)
        return (f"{indent}{draw(KEYS)}{around}{delimiter}{around}"
                f"{draw(WORDS)}{draw(COMMENTS)}")
    if form == "blank":
        return indent
    if form == "comment":
        return f"{indent}{draw(COMMENT_MARKS)}{draw(WORDS)}"
    if form == "continuation":
        return f"{indent}    {draw(WORDS)}"
    if form == "junk":
        return indent + draw(JUNK)
    return draw(FUZZ)


LEADING = st.lists(lines(), max_size=2)
SECTIONS = st.integers(0, 4)
BODIES = st.lists(lines(), max_size=6)


@st.composite
def texts(draw):
    """Sections of lines, each opened by a header, after a few lines that
    may come before any header."""
    out = draw(LEADING)
    for _ in range(draw(SECTIONS)):
        out.append(header(draw, draw(INDENTS)))
        out += draw(BODIES)
    return "\n".join(out)


TEXTS = texts()


class TestAgreesWithConfigparser:
    @settings(max_examples=1500, deadline=None)
    @given(text=TEXTS)
    def test_same_sections_or_both_reject(self, text):
        expected, cp = oracle(text)
        got = reader(text)
        if isinstance(got, dict):
            assert got == expected
            return
        if expected is None:
            return
        # configparser reads it: only the two constructs the reader refuses
        lineno, problem = re.match(r"line (\d+): (a [A-Z[]?\w+\]? \w+)", got).groups()
        line = text.split("\n")[int(lineno) - 1]
        if problem == "a [DEFAULT] section":
            assert line.strip().startswith("[DEFAULT]")
        else:
            assert problem == "a continuation line", got
            values = [v for s in cp.sections() for v in cp[s].values()]
            assert any("\n" in v for v in [*values, *cp.defaults().values()])

    @settings(max_examples=300, deadline=None)
    @given(text=TEXTS, at=st.integers(0, 20), indent=st.sampled_from(["", " ", "\t"]))
    def test_refuses_default_sections(self, text, at, indent):
        body = text.split("\n")
        body.insert(min(at, len(body)), f"{indent}[DEFAULT]")
        got = reader("\n".join(body))
        assert isinstance(got, str)

    @settings(max_examples=300, deadline=None)
    @given(key_indent=INDENTS, deeper=st.sampled_from([" ", "\t", "    "]),
           gap=st.sampled_from(["", "\n", "\n  ; note", "\n\n"]),
           word=st.text("ab=[]", min_size=1, max_size=4))
    def test_refuses_continuation_lines(self, key_indent, deeper, gap, word):
        text = f"[s]\n{key_indent}k = v{gap}\n{key_indent}{deeper}{word}"
        # configparser joins the deeper line to the value
        assert "\n" in oracle(text)[0]["s"]["k"]
        got = reader(text)
        assert isinstance(got, str)
        assert got.startswith(f"line {text.count(chr(10)) + 1}: a continuation line")

    @pytest.mark.parametrize("text", [
        SMALL_CELL,
        (ROOT / "configs" / "reference_cell.ini").read_text(encoding="utf-8"),
        (ROOT / "configs" / "activation_curves.ini").read_text(encoding="utf-8"),
    ], ids=["small-cell", "reference-cell", "activation-curves"])
    def test_sample_configs(self, text):
        expected, _ = oracle(text)
        assert expected and parse_ini(text) == expected

    def test_dialect(self):
        text = ("; head\n[Cell]  ; trailing\nN_Stations: 10 ; comment\n"
                "Radius_M = 1e3#data\n  # indented comment\n\n[b] junk\nk = a = b\n")
        assert parse_ini(text) == {"Cell": {"n_stations": "10", "radius_m": "1e3#data"},
                                   "b": {"k": "a = b"}}
        assert parse_ini(text) == oracle(text)[0]


class TestRejections:
    @pytest.mark.parametrize("text,line,what", [
        ("k = 1\n[a]\n", 1, "before the first"),
        ("[a]\n[b]\n[a]\n", 3, "repeated"),
        ("[a]\nK = 1\nk = 2\n", 3, "repeated"),
        ("[a]\njunk\n", 2, "not a [section] header"),
        ("[a]\n= 1\n", 2, "not a [section] header"),
        ("[a]\n[]\n", 2, "not a [section] header"),
        ("[DEFAULT]\nk = 1\n", 1, "[DEFAULT]"),
        ("[a]\nk = 1\n  2\n", 3, "continuation line"),
    ])
    def test_names_the_line(self, text, line, what):
        with pytest.raises(ValueError, match=re.escape(what)) as exc:
            parse_ini(text)
        assert str(exc.value).startswith(f"line {line}: ")
        assert oracle(text)[0] is None or what in ("[DEFAULT]", "continuation line")

    def test_load_experiment_categories(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[cell]\nn_stations = 1\n  2\n", encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_experiment(str(bad))
        assert exc.value.category == "config-invalid"
        assert "line 3: a continuation line" in str(exc.value)
        bad.write_bytes(b"[cell]\nn_stations = \xff\n")
        with pytest.raises(ConfigError) as exc:
            load_experiment(str(bad))
        assert exc.value.category == "config-invalid"
        with pytest.raises(ConfigError) as exc:
            load_experiment(str(tmp_path / "missing.ini"))
        assert exc.value.category == "config-missing"
        with pytest.raises(ConfigError) as exc:
            load_experiment(str(tmp_path))
        assert exc.value.category == "config-unreadable"

    def test_universal_newlines(self, tmp_path):
        # the file is read as configparser read it: '\r\n' and '\r' end lines
        path = tmp_path / "crlf.ini"
        path.write_bytes(b"[cell]\r\nn_stations = 10\rradius_m = 5\r\n")
        assert load_experiment(str(path)).population() == (10, 5.0)


def test_src_does_not_import_configparser():
    src = ROOT / "src" / "rspool"
    assert not [p.name for p in src.glob("*.py") if "configparser" in p.read_text()]
