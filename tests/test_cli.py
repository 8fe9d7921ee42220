"""Expression grammar, round trips, subcommands, exit codes."""

import argparse
import hashlib
import os
import pathlib
import random
import re
import string
import subprocess
import sys
from fractions import Fraction

import pytest

from chainalg import (
    AlgebraParams,
    IndexRangeError,
    chain,
    element,
    gen_f,
    gen_l,
    gen_s,
    in_b4,
)
from chainalg.checks import random_element
from chainalg.cli import ExprSyntaxError, _build_argparser, main, parse, render_chain_state
from chainalg.core import Combination, render_element
from chainalg.weights import read_weight
from token_parser import _Parser

P21 = AlgebraParams(2, 1)
P22 = AlgebraParams(2, 2)


def test_parse_single_interior():
    expr = parse("s[1|2]", P21)
    assert expr.as_element() == element(P21, gen_s((1,), (2,)))


def test_parse_signed_sum_with_rationals():
    expr = parse("3/2*f(1,1;1,1)[|] - l(2,1)[1|]", P22)
    expect = element(
        P22,
        (Fraction(3, 2), gen_f(1, 1, 1, 1, (), ())),
        (-1, gen_l(2, 1, (1,), ())),
    )
    assert expr.as_element() == expect


def test_parse_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("s[1|2", P21)
    assert err.value.column == 6
    assert "column 6" in str(err.value)


def test_parse_error_unknown_character():
    with pytest.raises(ExprSyntaxError) as err:
        parse("s[1|2]$", P21)
    assert err.value.column == 7


def test_parse_out_of_range_cites_bounds():
    with pytest.raises(IndexRangeError) as err:
        parse("s[3|1]", P21)
    assert "lambda=2" in str(err.value)
    with pytest.raises(IndexRangeError) as err:
        parse("l(2,1)[1|]", P21)
    assert "lambda_f=1" in str(err.value)


def test_parse_chain_expression():
    expr = parse("chain(1,2)[1,2,1] + 2*chain(2,1)[]", P22)
    state = expr.as_chain_state()
    assert state.get(__import__("chainalg").chain(1, (1, 2, 1), 2)) == 1
    assert state.get(__import__("chainalg").chain(2, (), 1)) == 2


def test_mixed_expression_rejected():
    expr = parse("s[1|1] + chain(1,1)[]", P21)
    with pytest.raises(ValueError):
        expr.as_element()
    with pytest.raises(ValueError):
        expr.as_chain_state()


def test_parse_render_roundtrip_random():
    rng = random.Random(41)
    for _ in range(60):
        e = random_element(rng, P22)
        text = render_element(e)
        assert parse(text, P22).as_element() == e


def test_render_parse_normalizes_corpus():
    corpus = [
        "s[|]",
        "s[1,2|]",
        "-s[1|1]",
        "2*s[1|1] + 1/3*l(1,1)[|2]",
        "f(1,2;2,1)[1,1|] - r(2,2)[|1]",
    ]
    for text in corpus:
        e = parse(text, P22).as_element()
        assert parse(render_element(e), P22).as_element() == e


def _outcome(read):
    try:
        return read()
    except ValueError as err:
        return f"{type(err).__name__}: {err}"


def _expression_corpus():
    """Rendered elements and chain states, each followed by one-character mutations."""
    rng = random.Random(20261020)
    # printable ASCII, grammar symbols and digits drawn more often
    alphabet = string.printable + "()[]|,;*/+-0123456789" * 2 + "fslrchain"
    corpus = []
    for n in range(400):
        if n % 2:
            base = render_element(random_element(rng, P22, max_terms=3, max_seq=3))
        else:
            items = []
            for _ in range(rng.randint(1, 3)):
                left = rng.randint(1, 2)
                body = [rng.randint(1, 2) for _ in range(rng.randint(0, 3))]
                c = chain(left, body, rng.randint(1, 2))
                items.append((c, Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3))))
            base = render_chain_state(Combination.from_items(P22, items))
        corpus.append(base)
        for _ in range(5):
            i = rng.randrange(len(base) + 1)
            op = rng.randrange(3)
            if op == 0:
                corpus.append(base[:i] + rng.choice(alphabet) + base[i:])
            elif op == 1 and i < len(base):
                corpus.append(base[:i] + base[i + 1:])
            else:
                corpus.append(base[:i] + rng.choice(alphabet) + base[i + 1:])
    return corpus


def test_expression_boundary_golden():
    # SHA-256 of each string's outcome as an element and as a chain state,
    # recorded before the atom grammar was read from the kind table
    corpus = _expression_corpus()
    assert len(corpus) == 2400 and all(text.isascii() for text in corpus)
    lines = []
    for text in corpus:
        as_element = _outcome(lambda: render_element(parse(text, P22).as_element()))
        as_state = _outcome(lambda: render_chain_state(parse(text, P22).as_chain_state()))
        lines.append(f"{text!r} {as_element} {as_state}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "3191212dc72bc34ee549f6701632517bf17e2940953c667624a76d524650d402"


def _edited_corpus():
    """Renders of elements and chain states at four parameter sets, each with 0-3
    edits, and one in ten then given an overlong digit run at a coefficient, at a
    flavor index or inside a sequence."""
    rng = random.Random(20261021)
    run = "7" * (sys.get_int_max_str_digits() + 1)
    pieces = [*"()[]|,;*/+-", *string.digits, *string.ascii_letters, "chain", "\t", "\n"]
    pieces += ["$", "\u00e9", "\u0663", "_"]
    # a run's site and its text there: a coefficient, a flavor index, the first or
    # the last integer of a sequence
    sites = [
        (r"(?:^| [+-] )", "{}*"), (r"(?<=\()(?=[0-9])", "{}"),
        (r"(?<=[\[|])(?=[0-9])", "{},"), (r"(?<=[0-9])(?=[|\]])", ",{}"),
    ]
    for params in (AlgebraParams(1, 1), AlgebraParams(2, 1), P22, AlgebraParams(3, 2)):
        for n in range(5000):
            if n % 2:
                text = render_element(random_element(rng, params, max_terms=3, max_seq=3))
            else:
                items = []
                for _ in range(rng.randint(1, 3)):
                    ends = [rng.randint(1, params.flavors) for _ in range(2)]
                    body = [rng.randint(1, params.colors) for _ in range(rng.randint(0, 4))]
                    items.append((chain(ends[0], body, ends[1]), Fraction(rng.randint(-3, 3) or 1)))
                text = render_chain_state(Combination.from_items(params, items))
            for _ in range(rng.randint(0, 3)):
                i = rng.randrange(len(text) + 1)
                op = rng.randrange(3)
                piece = "" if op == 1 else rng.choice(pieces)
                text = text[:i] + piece + text[i + (op != 0):]
            if n % 10 == 0:
                site, form = rng.choice(sites)
                at = [m.end() for m in re.finditer(site, text)]
                if at:
                    i = rng.choice(at)
                    text = text[:i] + form.format(run) + text[i:]
            yield params, text


def _terms_or_error(read, text, params):
    try:
        return read(text, params).terms
    except ValueError as err:
        return type(err), getattr(err, "column", None), str(err)


def test_reader_matches_token_parser():
    # the in-place reader against the token-list parser it replaced, term for
    # term, or error type, column and message
    outcomes = []
    for params, text in _edited_corpus():
        new = _terms_or_error(parse, text, params)
        old = _terms_or_error(lambda t, p: _Parser(t, p).parse(), text, params)
        assert new == old, (text[:200], new, old)
        outcomes.append(new)
    assert len(outcomes) == 20000
    parsed = sum(isinstance(o, list) for o in outcomes)
    too_long = sum(isinstance(o, tuple) and o[2].endswith("digits is too long") for o in outcomes)
    assert parsed > 4000 and too_long > 1000


def test_cli_bracket_golden(capsys):
    code = main(
        ["bracket", "f(1,1;1,1)[1|2]", "f(1,1;1,1)[2|1]", "--lambda", "2", "--lambda-f", "1"]
    )
    out = capsys.readouterr().out.strip()
    assert code == 0
    # canonical form of f(1,1;1,1)[1|1] - f(1,1;1,1)[2|2]: unit-flavor
    # whole-chain operators are not basis elements, so they expand
    assert out == (
        "s[1|1] - s[2|2] - 2*s[1,1|1,1] + 2*s[2,2|2,2]"
        " + s[1,1,1|1,1,1] + s[1,1,2|1,1,2] - s[1,2,1|1,2,1] - s[1,2,2|1,2,2]"
        " + s[2,1,1|2,1,1] + s[2,1,2|2,1,2] - s[2,2,1|2,2,1] - s[2,2,2|2,2,2]"
    )
    raw = element(
        P21,
        (1, gen_f(1, 1, 1, 1, (1,), (1,))),
        (-1, gen_f(1, 1, 1, 1, (2,), (2,))),
    )
    from chainalg import equal_on_chains

    assert equal_on_chains(parse(out, P21).as_element(), raw, 5)


# recorded from the hand-written right-end rules before they were derived by mirroring
@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["bracket", "f(1,2;2,1)[1,2|2]", "r(1,2)[1|2]"],
            "f(1,2;2,2)[1,1|2] - l(1,2)[1,1|2] + l(1,2)[1,1,1|2,1] + l(1,2)[1,1,2|2,2]",
        ),
        (
            ["bracket", "r(1,2)[1|2,1]", "r(2,1)[2,1|1]"],
            "-r(2,2)[1|1] + s[1|1] - s[1,1|1,1] - s[1,2|1,2] - r(2,2)[2,1|2,1]",
        ),
        (["bracket", "r(2,1)[1,2|1]", "s[1|2]"], "-r(2,1)[1,1|1] + r(2,1)[1,2|2]"),
        (
            ["rewrite", "--basis", "b0", "r(1,1)[1|2]"],
            "-r(2,2)[1|2] + s[1|2] - s[1,1|2,1] - s[1,2|2,2]",
        ),
        (
            ["rewrite", "--basis", "b0", "f(1,1;2,1)[1|2]"],
            "-f(2,2;2,1)[1|2] + r(2,1)[1|2] - r(2,1)[1,1|1,2] - r(2,1)[2,1|2,2]",
        ),
    ],
)
def test_cli_right_end_golden(argv, expected, capsys):
    assert main(argv + ["--lambda", "2", "--lambda-f", "2"]) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_cli_act(capsys):
    code = main(["act", "s[1|2]", "chain(1,1)[2,2]", "--lambda", "2", "--lambda-f", "1"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "chain(1,1)[1,2] + chain(1,1)[2,1]"


def test_cli_rewrite(capsys):
    code = main(["rewrite", "--basis", "b0", "l(1,1)[1|2]", "--lambda", "2", "--lambda-f", "1"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "s[1|2] - s[1,1|1,2] - s[2,1|2,2]"
    code = main(
        ["rewrite", "--basis", "b4", "l(1,1)[2,1|2,1]", "--lambda", "2", "--lambda-f", "1"]
    )
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "-f(1,1;1,1)[2|2] + l(1,1)[2|2] - l(1,1)[2,2|2,2]"


def test_cli_expression_with_leading_minus_after_double_dash(capsys):
    # argparse reads an argument that starts with '-' as an option, so such
    # an expression goes after '--'
    code = main(
        ["rewrite", "--basis", "b0", "--lambda", "2", "--lambda-f", "2", "--", "-l(1,1)[|]"]
    )
    assert code == 0
    assert capsys.readouterr().out == "l(2,2)[|] - s[|] + s[1|1] + s[2|2]\n"
    code = main(["act", "--lambda", "1", "--lambda-f", "1", "--", "-s[1|1]", "chain(1,1)[1]"])
    state = capsys.readouterr().out.strip()
    assert code == 0 and state == "-chain(1,1)[1]"
    code = main(["act", "--lambda", "1", "--lambda-f", "1", "--", "s[1|1]", state])
    assert code == 0
    assert capsys.readouterr().out.strip() == "-chain(1,1)[1]"


def test_cli_classify(capsys):
    code = main(["classify", "s[1|2] + s[2|1]", "--lambda", "2", "--lambda-f", "1"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    # ordering compares the lower sequence first, so s[2|1] prints first
    assert out == ["s[2|1]: raising", "s[1|2]: lowering"]


def test_cli_weight_and_gram_file(tmp_path, capsys):
    path = tmp_path / "weight.txt"
    code = main(
        ["weight", "--gamma", "2,1", "--out", str(path), "--lambda", "2", "--lambda-f", "1"]
    )
    assert code == 0
    text = path.read_text()
    assert "lambda 2" in text and "mode af" in text
    code = main(["gram", "--weight", str(path), "--max-size", "1", "--inertia"])
    out = capsys.readouterr().out
    assert code == 0
    assert "inertia:" in out and "neg=0" in out


def test_cli_gram_gamma(capsys):
    code = main(
        ["gram", "--gamma", "1", "--max-size", "2", "--inertia", "--lambda", "1", "--lambda-f", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "neg=0" in out


@pytest.mark.parametrize(
    "gamma, digest",
    [
        ("1", "ac606d954e8ef6e96f123f347bbfbf0eedae799ae0e07e1319bf9bcda3a4e7f2"),
        ("1,1", "4a37597c692ddbbacd41c52bdba7cbc9faede1a26742f64d7e3bc74c17ab1b35"),
    ],
    ids=["1", "1,1"],
)
def test_cli_gram_size3_golden(gamma, digest, capsys):
    # SHA-256 of stdout recorded with the dense Gram assembly and elimination
    argv = ["gram", "--gamma", gamma, "--max-size", "3", "--inertia"]
    assert main(argv + ["--lambda", "2", "--lambda-f", "2"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_cli_gram_rejects_weight_with_gamma(tmp_path, capsys):
    path = tmp_path / "w.txt"
    assert main(["weight", "--gamma", "1", "--out", str(path), "--lambda", "1", "--lambda-f", "1"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["gram", "--weight", str(path), "--gamma", "2", "--max-size", "1"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_cli_gram_accepts_gamma_prefix(capsys):
    code = main(
        ["gram", "--gamma", "gamma=1", "--max-size", "1", "--lambda", "1", "--lambda-f", "1"]
    )
    assert code == 0
    capsys.readouterr()


def test_cli_check_suites(capsys):
    for suite in ("jacobi", "independence"):
        code = main(
            [
                "check",
                "--suite",
                suite,
                "--seed",
                "1",
                "--cases",
                "20",
                "--lambda",
                "2",
                "--lambda-f",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0 and out


def test_cli_parse_error_exit_code(capsys):
    code = main(["bracket", "s[1|2", "s[1|1]", "--lambda", "2", "--lambda-f", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "column 6" in err


def test_cli_overlong_integer_is_a_column_syntax_error(capsys):
    # Python refuses int() of more than 4,300 digits; the parser names the column
    digits = "1" * 5000
    code = main(["classify", f"s[1|1] + {digits}*s[1|1]", "--lambda", "2", "--lambda-f", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "chainalg: syntax error at column 10: integer of 5000 digits is too long\n"


@pytest.mark.parametrize(
    "expr, column",
    [("s[1,{run}|1]", 5), ("s[1 ,\t{run}|1]", 7), ("l(1,{run})[1|1]", 5)],
    ids=["sequence", "sequence-after-space", "flavor"],
)
def test_cli_overlong_integer_in_an_atom_names_its_column(expr, column, capsys):
    # a run inside a sequence is read in one match; its column comes from its offset
    code = main(["classify", expr.format(run="1" * 5000), "--lambda", "2", "--lambda-f", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"chainalg: syntax error at column {column}: integer of 5000 digits is too long\n"
    )


@pytest.mark.parametrize(
    "command", [["weight"], ["gram", "--max-size", "1"]], ids=["weight", "gram"]
)
def test_cli_overlong_gamma_part_names_the_flag(command, capsys):
    # Python refuses int() of more than 4,300 digits; the message names --gamma
    gamma = "2," + "1" * 5000
    code = main(command + ["--gamma", gamma, "--lambda", "1", "--lambda-f", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "chainalg: --gamma part of 5000 digits is too long\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "s[1|1]", "--lambda", "{n}", "--lambda-f", "1"],
        ["check", "--suite", "jacobi", "--seed", "{n}", "--lambda", "1", "--lambda-f", "1"],
        ["gram", "--gamma", "1", "--max-size", "{n}", "--lambda", "1", "--lambda-f", "1"],
    ],
    ids=["lambda", "seed", "max-size"],
)
def test_cli_overlong_integer_flag_names_its_digit_count(argv, capsys):
    # the flag's error names the digit count on one line instead of echoing 5,000 digits
    flag = argv[argv.index("{n}") - 1]
    with pytest.raises(SystemExit) as exc:
        main([a.replace("{n}", "7" * 5000) for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "7777" not in captured.err
    assert captured.err.endswith(f"error: argument {flag}: integer of 5000 digits is too long\n")


def test_integer_digit_limit_boundary(capsys):
    # int() reads up to sys.get_int_max_str_digits() digits; the digit-run scan
    # runs only on longer texts, and judges each run, not the text's length
    limit = sys.get_int_max_str_digits()
    n = int("7" * limit)
    assert parse(f"{'7' * limit}*s[1|1]", P21).as_element().get(gen_s((1,), (1,))) == n
    code = main(["classify", f"{'7' * (limit + 1)}*s[1|1]", "--lambda", "2", "--lambda-f", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"chainalg: syntax error at column 1: integer of {limit + 1} digits is too long\n"
    )
    # a sequence longer than the limit in all, with no run longer than it
    seq = ",".join("1" * (limit // 2 + 1))
    (g,) = parse(f"s[{seq}|2]", P21).as_element().keys()
    assert len(seq) > limit and g.upper == (1,) * (limit // 2 + 1)
    # weight-file values longer than the limit in all, with no run longer than it
    num, den = "7" * (limit // 2), "1" * (limit // 2)
    w = read_weight(f"lambda 2\nlambda_f 1\nmode free\nalpha -{'7' * limit}\nIV [2] {num}/{den}\n")
    assert w.alpha == -n and w.h_IV((2,)) == Fraction(int(num), int(den))


def test_cli_missing_params_exit_code(capsys):
    code = main(["classify", "s[1|2]"])
    assert code == 2
    assert "--lambda" in capsys.readouterr().err


def test_cli_out_of_range_exit_code(capsys):
    code = main(["classify", "s[9|1]", "--lambda", "2", "--lambda-f", "1"])
    assert code == 2
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--suite", "jacobi", "--cases", "-5"],
        ["check", "--suite", "identities", "--max-len", "-1"],
        ["gram", "--gamma", "1", "--max-size", "-3"],
    ],
)
def test_cli_rejects_negative_counts(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--lambda", "2", "--lambda-f", "2"])
    assert exc.value.code == 2
    assert "must not be negative" in capsys.readouterr().err


def test_cli_zero_round_trip(capsys):
    # bracket, rewrite and act print a zero result as `0`; that text parses back
    params = ["--lambda", "2", "--lambda-f", "2"]
    assert main(["bracket", "s[1|1]", "s[1|1]"] + params) == 0
    zero = capsys.readouterr().out.strip()
    assert zero == "0"
    assert parse(zero, P22).as_element().is_zero()
    assert parse(zero, P22).as_chain_state().is_zero()
    for argv in (
        ["act", "s[1|1]", zero],
        ["act", zero, "chain(1,2)[1,2]"],
        ["bracket", zero, "s[1|2]"],
        ["rewrite", "--basis", "b0", zero],
        ["rewrite", "--basis", "b4", zero],
    ):
        assert main(argv + params) == 0
        assert capsys.readouterr().out == "0\n"
    # 0 is the whole expression, not a term
    for text in ("0 + s[1|1]", "s[1|1] - 0", "-0"):
        with pytest.raises(ExprSyntaxError):
            parse(text, P22)


def test_cli_jacobi_rejects_zero_cases(capsys):
    argv = ["check", "--suite", "jacobi", "--cases", "0", "--lambda", "2", "--lambda-f", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "chainalg: --cases must be at least 1 for the jacobi suite, got 0\n"
    # the other suites ignore --cases, so 0 stays valid there
    argv = ["check", "--suite", "identities", "--cases", "0", "--max-len", "1"]
    assert main(argv + ["--lambda", "1", "--lambda-f", "1"]) == 0
    assert capsys.readouterr().out == "identities (colors=1, flavors=1): 50/50 pass\n"


def test_cli_unopenable_file_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "missing" / "w.txt")
    assert main(["gram", "--weight", missing, "--max-size", "1"]) == 2
    argv = ["weight", "--gamma", "1", "--out", missing, "--lambda", "1", "--lambda-f", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"chainalg: cannot open {missing}: No such file or directory"] * 2


def test_cli_gram_rejects_free_entry_outside_b4(tmp_path, capsys):
    path = tmp_path / "w.txt"
    path.write_text("lambda 2\nlambda_f 1\nmode free\nIV [1] 4\n")
    assert main(["gram", "--weight", str(path), "--max-size", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and "s[1|1]" in err[0] and "outside basis b4" in err[0]


@pytest.mark.parametrize("mode_line", ["mode af\n", ""], ids=["mode-af", "no-mode"])
@pytest.mark.parametrize("size", ["1", "2"])
def test_cli_gram_rejects_af_weight_with_alpha(tmp_path, capsys, mode_line, size):
    # af sums diverge for a nonzero tail; the file is refused at every size
    path = tmp_path / "w.txt"
    path.write_text("lambda 2\nlambda_f 1\n" + mode_line + "alpha 1\n")
    assert main(["gram", "--weight", str(path), "--max-size", size, "--inertia"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and "alpha 0" in err[0]
    path.write_text("lambda 2\nlambda_f 1\nmode free\nalpha 1\n")
    assert main(["gram", "--weight", str(path), "--max-size", size]) == 0


def test_cli_recursion_limit_exit_code():
    # a b4 rewrite too deep for Python's recursion limit is a usage error, not a
    # crash; this input's trailing 1-block is stripped in one step, so it exits 0
    ones = ",1" * 500
    expr = f"s[2{ones}|2{ones}]"
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "chainalg", "rewrite", "--basis", "b4", expr,
         "--lambda", "2", "--lambda-f", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode != 1
    assert "Traceback" not in proc.stderr
    if proc.returncode == 2:
        assert proc.stderr.startswith("chainalg: ") and proc.stderr.count("\n") == 1


def test_cli_rewrites_long_one_blocks():
    # 500 shared 1s take one block-stripping step each way, not one Python
    # call level per 1
    ones = ",1" * 500
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for expr, flavors in ((f"s[2{ones}|2{ones}]", 1), (f"r(1,1)[1{ones}|1{ones}]", 2)):
        proc = subprocess.run(
            [sys.executable, "-m", "chainalg", "rewrite", "--basis", "b4", expr,
             "--lambda", "2", "--lambda-f", str(flavors)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        params = AlgebraParams(2, flavors)
        out = parse(proc.stdout.strip(), params).as_element()
        assert out.keys() and all(in_b4(g) for g in out.keys())
        assert render_element(out) == proc.stdout.strip()


@pytest.mark.parametrize(
    "text, bad",
    [
        ("lambda 1\nlambda_f 1\nmode free\nalpha 1/0\n", "alpha 1/0"),
        ("lambda 1\nlambda_f 1\nI 1 [] 1 1/0\n", "I 1 [] 1 1/0"),
        ("lambda 1 7\nlambda_f 1\n", "lambda 1 7"),
        ("lambda 1\nlambda_f 1\nI 1 [] 1 2 junk  # comment\n", "I 1 [] 1 2 junk  # comment"),
        ("lambda 1_0\nlambda_f 1\n", "lambda 1_0"),
        ("lambda 1\nlambda-f \u0662\n", "lambda-f \u0662"),
        ("lambda 1\nlambda_f 1\nI 1 [\u00b9] 1 2\n", "I 1 [\u00b9] 1 2"),
        ("lambda 1\nlambda_f 1\nmode free\nalpha 2E3\n", "alpha 2E3"),
        ("lambda 1\nlambda_f 1\nI 1 [1] 1 1e1\n", "I 1 [1] 1 1e1"),
        ("lambda 1\nlambda_f 1\nI 1 [1] 1 0.5e-1\n", "I 1 [1] 1 0.5e-1"),
    ],
    ids=[
        "alpha-zero-den", "I-zero-den", "lambda-extra", "I-extra", "underscore", "arabic",
        "superscript", "alpha-exponent", "I-exponent", "I-decimal-exponent",
    ],
)
def test_cli_gram_rejects_malformed_weight_lines(tmp_path, capsys, text, bad):
    # zero denominators, extra fields, digits other than ASCII and exponent
    # notation (alpha 1e100000000 would build the whole integer) are refused
    # where the line is read
    path = tmp_path / "w.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["gram", "--weight", str(path), "--max-size", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"chainalg: malformed weight-file line {bad!r}\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["act", "s[\u0663|1]", "chain(1,1)[1]"],
         "syntax error at column 3: unexpected character '\u0663'"),
        (["classify", "s[\u00b2|1]"], "syntax error at column 3: unexpected character '\u00b2'"),
        (["classify", "s[1|1] + s\u00e9[1|1]"],
         "syntax error at column 11: unexpected character '\u00e9'"),
        (["classify", "s[1_0|1]"], "syntax error at column 4: unexpected character '_'"),
        (["weight", "--gamma", "\u0662"], "not an ASCII number: '\u0662'"),
        (["weight", "--gamma", "1_0"], "not an ASCII number: '1_0'"),
        (["gram", "--gamma", "2,\u0661", "--max-size", "1"], "not an ASCII number: '\u0661'"),
        (["weight", "--gamma", "2,,1"], "invalid --gamma part: ''"),
        (["weight", "--gamma", "2,1,"], "invalid --gamma part: ''"),
        (["weight", "--gamma", "x"], "invalid --gamma part: 'x'"),
        (["weight", "--gamma", "1.5"], "invalid --gamma part: '1.5'"),
        (["gram", "--gamma", "1/2", "--max-size", "1"], "invalid --gamma part: '1/2'"),
    ],
    ids=[
        "arabic-digit", "superscript", "letter", "underscore", "gamma-arabic", "gamma-underscore",
        "gram-gamma", "gamma-empty-part", "gamma-trailing-comma", "gamma-word", "gamma-decimal",
        "gamma-fraction",
    ],
)
def test_cli_reads_ascii_digits_only(argv, err, capsys):
    assert main(argv + ["--lambda", "3", "--lambda-f", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"chainalg: {err}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "s[1|1]", "--lambda", "\u0663", "--lambda-f", "1"],
        ["classify", "s[1|1]", "--lambda", "2", "--lambda-f", "1_0"],
        ["check", "--suite", "jacobi", "--seed", "\u0661", "--lambda", "1", "--lambda-f", "1"],
        ["check", "--suite", "jacobi", "--cases", "1_0", "--lambda", "1", "--lambda-f", "1"],
        ["check", "--suite", "identities", "--max-len", "\u00b2",
         "--lambda", "1", "--lambda-f", "1"],
        ["gram", "--gamma", "1", "--max-size", "\u0661", "--lambda", "1", "--lambda-f", "1"],
    ],
    ids=["lambda", "lambda-f", "seed", "cases", "max-len", "max-size"],
)
def test_cli_integer_flags_read_ascii_digits_only(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    value = next(a for a in argv if not a.isascii() or "_" in a)
    assert capsys.readouterr().err.endswith(f"invalid int value: {value!r}\n")


def test_cli_check_deterministic_given_seed(capsys):
    argv = [
        "check",
        "--suite",
        "jacobi",
        "--seed",
        "7",
        "--cases",
        "30",
        "--lambda",
        "2",
        "--lambda-f",
        "2",
    ]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_cli_check_failure_exit_code(monkeypatch, capsys):
    from chainalg import checks

    monkeypatch.setattr(checks, "suite_jacobi", lambda p, **kw: (False, ["forced"]))
    code = main(
        ["check", "--suite", "jacobi", "--lambda", "1", "--lambda-f", "1"]
    )
    assert code == 1
    assert "forced" in capsys.readouterr().out


def test_cli_every_suite_choice_names_a_suite():
    # check runs getattr(checks, f"suite_{name}") for each --suite choice
    from chainalg import checks

    top = _build_argparser()
    commands = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in commands.choices["check"]._actions if a.dest == "suite")
    assert suite.choices
    for name in suite.choices:
        assert callable(getattr(checks, f"suite_{name}", None)), name


def test_cli_check_identities_suite(capsys):
    code = main(
        [
            "check",
            "--suite",
            "identities",
            "--max-len",
            "3",
            "--lambda",
            "1",
            "--lambda-f",
            "1",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "identities" in out


def test_cli_check_oracle_suite(capsys):
    code = main(
        ["check", "--suite", "oracle", "--lambda", "1", "--lambda-f", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "word pairs match" in out


def test_render_chain_state_orders_chains():
    from chainalg import chain
    from chainalg.core import Combination

    state = Combination.from_items(
        P21, [(chain(1, (2, 1), 1), 1), (chain(1, (), 1), -2)]
    )
    assert render_chain_state(state) == "-2*chain(1,1)[] + chain(1,1)[2,1]"
