"""Command line round trips, exit codes, and cap plumbing."""

import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import howekit
from howekit import (DiagramSpec, MultiPartition, char_product, hat, limits,
                     verify_combinatorial_howe)
from howekit.cli import dispatch


def run(capsys, args, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    rc = dispatch(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_hat_bytes(capsys):
    rc, out, _ = run(capsys, ["hat", "--partition", "5,4,2,1",
                              "--n", "4", "--m", "5"])
    assert rc == 0
    assert out == "[3,2,2,1,0]\n"


def test_rectangle_rule_has_one_message(capsys):
    # (3) is too wide for the 2 x 1 rectangle of an n = 2 block of size 1
    message = "partition (3,) does not fit in 2 x 1"
    with pytest.raises(ValueError) as info:
        hat((3,), 2, 1)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        char_product(MultiPartition([[3]], [1]), DiagramSpec("C", [1]), 2)
    assert str(info.value) == message
    # one height in mu' makes m = 1; hat alone checks the rule
    with pytest.raises(ValueError) as info:
        verify_combinatorial_howe(2, 1, (1,), (3,))
    assert (type(info.value), str(info.value)) == (ValueError, message)
    rc, out, err = run(capsys, ["product", "--symbols", "C", "--sizes", "1",
                                "--mu", "3", "--n", "2"])
    assert (rc, out, err) == (2, "", "error: %s\n" % message)


def test_conjugate_bytes(capsys):
    rc, out, _ = run(capsys, ["conjugate", "--partition", "3,1"])
    assert rc == 0
    assert out == "[2,1,1]\n"


def test_kostant_plain_and_twisted(capsys):
    rc, out, _ = run(capsys, ["kostant", "--family", "C", "--m", "2",
                              "--beta", "2,0"])
    assert (rc, out) == (0, "3\n")
    rc, out, _ = run(capsys, ["kostant", "--family", "C", "--m", "2",
                              "--beta", "0,-2", "--twisted"])
    assert (rc, out) == (0, "3\n")


@pytest.mark.parametrize("family, beta, want", [
    ("A", [0] * 44, "1\n"),
    ("A", [1] + [0] * 42 + [-1], "4398046511104\n"),  # 2^42
    ("C", [0] * 44, "1\n"),
])
def test_kostant_at_rank_44(capsys, family, beta, want):
    # the peel walks its slots on a stack, one frame per coordinate only
    rc, out, err = run(capsys, ["kostant", "--family", family, "--m", "44",
                                "--beta", ",".join(map(str, beta))])
    assert (rc, out, err) == (0, want, "")


def test_weight_mult(capsys):
    rc, out, _ = run(capsys, ["weight-mult", "--family", "C", "--m", "2",
                              "--lam", "2,0", "--mu", "0,0"])
    assert rc == 0
    assert out.strip().isdigit()


def test_crystal_graph_dot(capsys):
    # the bare "-3,-2" after --seed exercises the negative-value gluing
    rc, out, _ = run(capsys, ["crystal-graph", "--seed", "-3,-2",
                              "--n", "3", "--dot"])
    assert rc == 0
    assert out.startswith("digraph")
    nodes = re.findall(r"^  v\d+ \[label=", out, re.M)
    assert len(nodes) == 14
    assert out.count("->") == 16


def test_crystal_graph_json_ops_subset(capsys):
    rc, out, _ = run(capsys, ["crystal-graph", "--seed", "-3,-2",
                              "--n", "3", "--ops", "1"])
    assert rc == 0
    obj = json.loads(out)
    assert set(obj) >= {"vertices", "edges"}


def test_product_decompose_round_trip(capsys, monkeypatch, tmp_path):
    rc, poly, _ = run(capsys, ["product", "--symbols", "C", "--sizes", "2",
                               "--mu", "2,1", "--n", "2"])
    assert rc == 0
    rc, out, _ = run(capsys, ["decompose", "--family", "C", "--n", "2"],
                     stdin=poly, monkeypatch=monkeypatch)
    assert rc == 0
    assert out == '[{"lam":[2,1],"mult":1}]\n'
    # and from a file named by --input
    path = tmp_path / "poly.json"
    path.write_text(poly)
    assert run(capsys, ["decompose", "--family", "C", "--n", "2",
                        "--input", str(path)]) == (0, out, "")


def test_star_without_columns_exits_two(capsys):
    rc, out, err = run(capsys, ["star", "--element", "[]", "--n", "2"])
    assert (rc, out) == (2, "")
    assert err == "error: star needs an element with at least one column\n"


def test_star_round_trip(capsys):
    rc, king, _ = run(capsys, ["star", "--element", "-4,-3;-2,-1,1;-4",
                               "--n", "4"])
    assert rc == 0
    assert king == '[["1","2b","3"],["1","3"],["2","3"],["2"]]\n'
    rc, back, _ = run(capsys, ["star", "--element", king.strip(),
                               "--m", "3", "--n", "4", "--inverse"])
    assert rc == 0
    assert back == "[[-4,-3],[-2,-1,1],[-4]]\n"


def test_king_check_output(capsys):
    rc, out, _ = run(capsys, ["king-check", "--m", "3", "--element",
                              '[["1","2b","3"],["1","3"],["2","3"],["2"]]'])
    assert rc == 0
    assert json.loads(out) == {"king": True, "shape": [4, 3, 1],
                               "weight": [3, 1, 2]}


def test_kappa_and_jdt_null(capsys):
    rc, out, _ = run(capsys, ["kappa", "--element", "-2,-1",
                              "--n", "2", "--j", "1"])
    assert (rc, out) == (0, "null\n")
    rc, out, _ = run(capsys, ["jdt", "--element", "-3,1,5;-5,-1,2,4,5",
                              "--n", "5", "--j", "1"])
    assert rc == 0
    assert json.loads(out) == [[-3, 1, 2, 5], [-5, -2, -1, 2, 4, 5]]


TWO_COLUMNS = ["--element", "-2,-1;1,2", "--n", "2"]


@pytest.mark.parametrize("args, message", [
    (["crystal-graph", "--seed", "-2", "--n", "2", "--ops", "5"],
     "operator index 5 outside 0..1"),
    (["kappa", *TWO_COLUMNS, "--j", "0"], "operator index must be nonzero"),
    (["kappa", *TWO_COLUMNS, "--j", "3"], "unbarred index 3 outside 1..2"),
    (["kappa", *TWO_COLUMNS, "--j", "-2"], "barred index 2 outside 1..1"),
    (["jdt", *TWO_COLUMNS, "--j", "5"], "jdt index 5 outside 1..1"),
    (["branch", "--kappa", "1", "--symbols", "AB", "--sizes", "1,1",
      "--nu", "1;1"], "symbols must be A or C: ('A', 'B')"),
    (["branch", "--kappa", "1", "--symbols", "AC", "--sizes", "1",
      "--nu", "1"], "one size per symbol required"),
    (["branch", "--kappa", "1", "--symbols", "A", "--sizes", "0",
      "--nu", "1"], "sizes must be positive: (0,)"),
    # a flag that needs a companion flag, or a family, that is not given
    (["kostant", "--twisted", "--family", "A", "--m", "2", "--beta", "1,1"],
     "--twisted needs family C"),
    (["star", "--inverse", "--element", "1", "--n", "2"],
     "star --inverse needs --m"),
    (["charge", "--king", "[[],[]]"], "charge --king needs --m"),
    (["charge", "--element", "-2,-1;-2,-1"], "charge --element needs --n"),
])
def test_bad_operator_and_spec_input_exits_two(capsys, args, message):
    assert run(capsys, args) == (2, "", "error: %s\n" % message)


def test_charge_both_modes(capsys):
    rc, out, _ = run(capsys, ["charge", "--element", "-2,-1;-2,-1",
                              "--n", "2"])
    assert rc == 0
    st = json.loads(out)
    assert set(st) == {"D", "charge", "delta", "gamma"}
    rc, out, _ = run(capsys, ["charge", "--king", '[[],[]]', "--m", "2"])
    assert rc == 0
    assert json.loads(out) == {"charge": 0}


def test_charge_requires_one_mode(capsys):
    rc, _, err = run(capsys, ["charge", "--n", "2"])
    assert rc == 2
    assert "error" in err


def test_verify_clean_exit_zero(capsys):
    rc, out, _ = run(capsys, ["verify-howe", "--n", "1", "--m", "1"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["failures"] == []


@pytest.mark.parametrize("args, name, want", [
    pytest.param(["verify-schur", "--n", "1", "--m", "2"],
                 "verify_schur_duality", (1, 2), id="verify-schur"),
    pytest.param(["verify-howe", "--n", "1", "--m", "2"],
                 "verify_howe_duality", (1, 2), id="verify-howe"),
    pytest.param(["verify-bijection", "--n", "1", "--m", "2"],
                 "verify_bijection", (1, 2), id="verify-bijection"),
    pytest.param(["verify-contraction", "--n", "1", "--m", "2"],
                 "verify_contraction", (1, 2), id="verify-contraction"),
    pytest.param(["verify-jdt", "--n", "1", "--m", "2"],
                 "verify_jdt", (1, 2), id="verify-jdt"),
    pytest.param(["verify-generalized", "--n", "1", "--r", "3"],
                 "verify_generalized_duality", (1, 3, 2),
                 id="verify-generalized"),
    pytest.param(["verify-generalized", "--n", "1", "--r", "3",
                  "--size-bound", "4"],
                 "verify_generalized_duality", (1, 3, 4),
                 id="verify-generalized-size-bound"),
    pytest.param(["injectivity", "--symbols", "CA", "--sizes", "1,2",
                  "--part-bound", "3", "--n-bound", "4"],
                 "injectivity_scan", (DiagramSpec("CA", (1, 2)), 3, 4),
                 id="injectivity"),
])
def test_verify_failure_exit_one(capsys, monkeypatch, args, name, want):
    from howekit import verify as vmod
    bad = {"cells": 1, "failures": [{"lam": [1]}], "runtime_ms": 0}
    got = []
    monkeypatch.setattr(vmod, name, lambda *a: got.append(a) or bad)
    rc, out, _ = run(capsys, args)
    assert rc == 1
    assert out == '{"cells":1,"failures":[{"lam":[1]}],"runtime_ms":0}\n'
    assert got == [want]


def test_injectivity_subcommand(capsys):
    rc, out, _ = run(capsys, ["injectivity", "--symbols", "CC",
                              "--sizes", "1,1", "--part-bound", "1",
                              "--n-bound", "1"])
    assert rc == 0
    assert json.loads(out)["failures"] == []


def test_unknown_subcommand_exits_two(capsys):
    assert dispatch(["frobnicate"]) == 2
    capsys.readouterr()


def test_bad_value_exits_two(capsys):
    rc, _, err = run(capsys, ["hat", "--partition", "1,2",
                              "--n", "2", "--m", "2"])
    assert rc == 2
    assert "error" in err


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    capsys.readouterr()


USAGE = "usage: howekit [-h] SUBCOMMAND ...\nhowekit: error: "
HAT_USAGE = ("usage: howekit hat [-h] [--config CONFIG] --partition "
             "PARTITION --n N --m M\nhowekit hat: error: ")
KOSTANT_USAGE = ("usage: howekit kostant [-h] [--config CONFIG] --family "
                 "FAMILY --m M --beta\n                       BETA "
                 "[--twisted]\n")
CHOICES = ("'hat', 'conjugate', 'kostant', 'weight-mult', 'branch', "
           "'character', 'decompose', 'product', 'crystal-graph', 'star', "
           "'king-check', 'kappa', 'jdt', 'charge', 'verify-schur', "
           "'verify-howe', 'verify-bijection', 'verify-contraction', "
           "'verify-jdt', 'verify-generalized', 'injectivity'")
KOSTANT = ["kostant", "--family", "C", "--m", "2", "--beta", "2,0"]
HAT = ["hat", "--partition", "5,4,2,1", "--n", "4", "--m", "5"]


def invalid_choice(word):
    return (USAGE + "argument SUBCOMMAND: invalid choice: '%s' (choose from "
            "%s)\n" % (word, CHOICES))


# (rc, stdout, stderr) of each call, as argparse gave them before any call
# could skip the full parser
@pytest.mark.parametrize("argv, want", [
    ([], (2, "", USAGE + "the following arguments are required: "
          "SUBCOMMAND\n")),
    (["bogus"], (2, "", invalid_choice("bogus"))),
    (["kost"] + KOSTANT[1:], (2, "", invalid_choice("kost"))),
    (["--m", "x"], (2, "", invalid_choice("x"))),
    (["--config", "x", "hat"], (2, "", invalid_choice("x"))),
    (["--"] + HAT, (2, "", invalid_choice("--"))),
    (HAT + ["--", "x"], (2, "", USAGE + "unrecognized arguments: -- x\n")),
    (KOSTANT + ["--bogus", "1"],
     (2, "", USAGE + "unrecognized arguments: --bogus 1\n")),
    (KOSTANT + ["extra"], (2, "", USAGE + "unrecognized arguments: extra\n")),
    (["hat", "x"], (2, "", HAT_USAGE + "the following arguments are "
                    "required: --partition, --n, --m\n")),
    (HAT[:-2], (2, "", HAT_USAGE + "the following arguments are required: "
                "--m\n")),
    (["hat", "--m", "x", "--partition", "1", "--n", "1"],
     (2, "", HAT_USAGE + "argument --m: invalid int value: 'x'\n")),
    (HAT, (0, "[3,2,2,1,0]\n", "")),
    (["kostant", "--fam", "C", "--m", "2", "--beta", "2,0"], (0, "3\n", "")),
    (KOSTANT[:-1] + ["-1,2"], (0, "0\n", "")),
    (KOSTANT[:-1] + ["-x"], (2, "", KOSTANT_USAGE + "howekit kostant: "
                             "error: argument --beta: expected one "
                             "argument\n")),
    # U+0663 ARABIC-INDIC DIGIT THREE: a decimal digit, so it is glued and
    # int() reads it as 3
    (["kostant", "--family", "C", "--m", "1", "--beta", "-٣"],
     (0, "0\n", "")),
    # U+00B2 SUPERSCRIPT TWO is a digit but not a decimal one: not glued
    (KOSTANT[:-1] + ["-²"], (2, "", KOSTANT_USAGE + "howekit kostant: "
                             "error: argument --beta: expected one "
                             "argument\n")),
    (["kostant", "-h"], (0, KOSTANT_USAGE + """
options:
  -h, --help       show this help message and exit
  --config CONFIG  key=value file overriding size caps for this command
  --family FAMILY
  --m M
  --beta BETA
  --twisted        type C count twisted by the sign of the long roots
""", "")),
    (["verify-bijection", "--help"], (0, """\
usage: howekit verify-bijection [-h] [--config CONFIG] --n N --m M

options:
  -h, --help       show this help message and exit
  --config CONFIG  key=value file overriding size caps for this command
  --n N
  --m M
""", "")),
    # the boundary of the one-pass flag reader: "--flag=" with an empty
    # value and a repeated flag are read by it; the rest go to argparse
    (["hat", "--partition=", "--n", "2", "--m", "2"], (0, "[2,2]\n", "")),
    (["hat", "--partition", "2,1", "--n", "9", "--m", "4", "--n", "2"],
     (0, "[2,2,1,0]\n", "")),
    (KOSTANT + ["--twisted=1"], (2, "", KOSTANT_USAGE + "howekit kostant: "
                                 "error: argument --twisted: ignored "
                                 "explicit argument '1'\n")),
    (["hat", "--partition", "--n", "--n", "2", "--m", "2"],
     (2, "", HAT_USAGE + "argument --partition: expected one argument\n")),
    (HAT + ["--config"],
     (2, "", HAT_USAGE + "argument --config: expected one argument\n")),
    (["hat", "--partition", "1", "--n", "2", "--m", "2", "--par", "2"],
     (0, "[1,1]\n", "")),
    (HAT + ["-h"], (0, HAT_USAGE.split("\n")[0] + """

options:
  -h, --help            show this help message and exit
  --config CONFIG       key=value file overriding size caps for this command
  --partition PARTITION
  --n N
  --m M
""", "")),
    (["star", "--element", "-1", "--n", "2"], (0, '[[],["1"]]\n', "")),
])
def test_direct_parse_matches_full_parser(capsys, monkeypatch, argv, want):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to this
    assert run(capsys, argv) == want


def test_top_level_help_bytes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for argv in (["-h"], ["--help"]):
        rc, out, err = run(capsys, argv)
        assert (rc, err) == (0, "")
        digest = hashlib.sha256(out.encode()).hexdigest()[:16]
        assert digest == "a344715a2966cdaa"


def test_subcommand_call_skips_the_top_level_parse(capsys, monkeypatch):
    # a plain call is read from the flag tables alone; any other call goes
    # once through the full parser, which hands it to the subcommand's
    calls = []
    parse = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        calls.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        counting)
    assert run(capsys, HAT) == (0, "[3,2,2,1,0]\n", "")
    assert calls == []
    assert run(capsys, KOSTANT + ["extra"])[0] == 2
    assert calls == ["howekit", "howekit kostant"]
    assert run(capsys, ["bogus"])[0] == 2
    assert calls == ["howekit", "howekit kostant", "howekit"]


EDGE_ARGVS = [
    (HAT + ["--n", "4"], True),
    (["hat", "--partition=", "--n", "2", "--m", "2"], True),
    (["hat", "--partition=5,4", "--n=4", "--m=5"], True),
    (["hat", "--partition", "", "--n", "2", "--m", "2"], True),
    (KOSTANT + ["--twisted", "--twisted"], True),
    (KOSTANT + ["--config", "caps.conf"], True),
    (["star", "--element", "-1", "--n", "2"], True),
    (["verify-generalized", "--n", "1", "--r", "1"], True),
    (["charge", "--king", "[[],[]]", "--m", "2"], True),
    (KOSTANT + ["--twisted=1"], False),
    (KOSTANT + ["--twisted=-1"], False),
    (["hat", "--partition", "--n", "--n", "2", "--m", "2"], False),
    (HAT + ["--config"], False),
    (["hat", "--partition", "1", "--n", "2", "--m", "2", "--par", "2"],
     False),
    (HAT + ["-h"], False),
    (HAT + ["--help"], False),
    (HAT + ["--", "x"], False),
    (HAT + ["x"], False),
    (KOSTANT[:-1] + ["-x"], False),
    (["hat", "--m", "x", "--partition", "1", "--n", "1"], False),
    (["hat", "--m=", "--partition", "1", "--n", "1"], False),
    (HAT[:-2], False),
    (KOSTANT + ["--bogus", "1"], False),
    (["kost"] + KOSTANT[1:], False),
    (["--config", "x"] + HAT, False),
    ([], False),
]


def test_one_pass_reader_agrees_with_argparse():
    from howekit import cli
    parser, commands = cli._build_parser()
    with open(os.path.join(os.path.dirname(__file__), os.pardir,
                           "perfbench", "queries.json")) as f:
        recorded = [e["argv"] for entries in json.load(f)["kinds"].values()
                    for e in entries]
    assert len(recorded) == 1256
    for argv, fast in [(argv, True) for argv in recorded] + EDGE_ARGVS:
        argv = cli._glue_negative_values(argv)
        ns = cli._fast_parse(commands, argv)
        assert (ns is not None) == fast, argv
        if fast:
            assert vars(ns) == vars(parser.parse_args(argv)), argv


def test_config_cap_trips(capsys, tmp_path):
    cfg = tmp_path / "caps.conf"
    cfg.write_text("term_cap = 3  # tiny on purpose\n")
    # restores the caps in force even if the command leaked its own
    with limits.overridden({}):
        rc, _, err = run(capsys, ["product", "--symbols", "C",
                                  "--sizes", "2", "--mu", "2,1",
                                  "--n", "2", "--config", str(cfg)])
    assert rc == 2
    assert "error" in err


PRODUCT = ["product", "--symbols", "C", "--sizes", "2", "--mu", "2,1",
           "--n", "2"]


@pytest.mark.parametrize("text, message", [
    ("\n# tiny on purpose\n\nterm_cap = 3\n",
     "polynomial product forms 12 term pairs, above term_cap 3"),
    ("term_cap 3\n", "config line without '=': 'term_cap 3'"),
    ("term_cap = three\n", "invalid literal for int() with base 10: 'three'"),
])
def test_config_file_lines(capsys, tmp_path, text, message):
    # blank and comment lines are skipped, so the cap still applies; a
    # line without '=' or with a non-integer value is malformed input
    cfg = tmp_path / "caps.conf"
    cfg.write_text(text)
    with limits.overridden({}):
        assert run(capsys, PRODUCT + ["--config", str(cfg)]) == (
            2, "", "error: %s\n" % message)


def test_branch_subcommand(capsys):
    rc, out, _ = run(capsys, ["branch", "--kappa", "1,1", "--symbols", "AA",
                              "--sizes", "1,1", "--nu", "1;1"])
    assert rc == 0
    assert out.strip().isdigit()


def test_character_subcommand(capsys):
    rc, out, _ = run(capsys, ["character", "--family", "C", "--n", "1",
                              "--lam", "1"])
    assert rc == 0
    obj = json.loads(out)
    assert {"coef": 1, "exp": [1]} in obj and {"coef": 1, "exp": [-1]} in obj


def test_character_rank_zero_exits_two(capsys):
    rc, out, err = run(capsys, ["character", "--family", "C", "--n", "0",
                                "--lam", ""])
    assert (rc, out) == (2, "")
    assert err == "error: rank parameter must be >= 1\n"


@pytest.mark.parametrize("args,stdin", [
    (["verify-howe", "--n", "0", "--m", "0"], None),
    (["verify-schur", "--n", "0", "--m", "1"], None),
    (["verify-generalized", "--n", "0", "--r", "1"], None),
    (["decompose", "--family", "C", "--n", "0"], '[{"exp":[],"coef":1}]'),
])
def test_rank_zero_exits_two(capsys, monkeypatch, args, stdin):
    rc, out, err = run(capsys, args, stdin, monkeypatch)
    assert (rc, out) == (2, "")
    assert err == "error: rank parameter must be >= 1\n"


@pytest.mark.parametrize("args", [
    ["verify-bijection", "--n", "1", "--m", "0"],
    ["verify-contraction", "--n", "-1", "--m", "1"],
    ["verify-jdt", "--n", "-1", "--m", "2"],
])
def test_crystal_sweep_bad_rank_exits_two(capsys, args):
    # m = 0 used to report a false failure, n = -1 an empty clean sweep
    rc, out, err = run(capsys, args)
    assert (rc, out) == (2, "")
    assert err == "error: rank parameter must be >= 1\n"


@pytest.mark.parametrize("args,stdin", [
    (["king-check", "--element", "[[1]]", "--m", "1"], None),
    (["king-check", "--element", "[1]", "--m", "1"], None),
    (["crystal-graph", "--seed", "[1]", "--n", "1"], None),
    (["crystal-graph", "--seed", '[["1"]]', "--n", "1"], None),
    (["decompose", "--family", "C", "--n", "1"], "[1]"),
    (["decompose", "--family", "C", "--n", "1"], '{"a":1}'),
    (["decompose", "--family", "C", "--n", "1"], '[{"exp":1,"coef":1}]'),
])
def test_badly_shaped_json_exits_two(capsys, monkeypatch, args, stdin):
    rc, out, err = run(capsys, args, stdin, monkeypatch)
    assert (rc, out) == (2, "")
    assert err.startswith("error: expected a JSON list of ")


def test_elem_sym_over_enum_cap_exits_two(capsys, tmp_path):
    # e_3 of the 22 folded letters at n = 11 (a size no other test builds,
    # since elem_sym keeps results) has C(22, 3) = 1540 subsets
    cfg = tmp_path / "caps.conf"
    cfg.write_text("enum_cap = 1000\n")
    rc, out, err = run(capsys, ["product", "--symbols", "A", "--sizes", "3",
                                "--mu", "3", "--n", "11",
                                "--config", str(cfg)])
    assert (rc, out) == (2, "")
    assert err == ("error: e_3 of 22 letters has 1540 subsets, above "
                   "enum_cap 1000\n")


def test_config_lasts_one_call(capsys, tmp_path):
    product = ["product", "--symbols", "C", "--sizes", "2", "--mu", "2,1",
               "--n", "2"]
    tiny = tmp_path / "tiny.conf"
    tiny.write_text("term_cap = 3\n")
    bogus = tmp_path / "bogus.conf"
    bogus.write_text("term_cap = 3\nbogus = 1\n")
    default = limits.get_cap("term_cap")
    with limits.overridden({}):
        rc, _, err = run(capsys, product + ["--config", str(tiny)])
        assert rc == 2 and "term_cap 3" in err
        assert limits.get_cap("term_cap") == default
        rc, out, _ = run(capsys, product)
        assert rc == 0 and out
        rc, _, err = run(capsys, product + ["--config", str(bogus)])
        assert (rc, err) == (2, "error: unknown cap 'bogus'\n")
        assert limits.get_cap("term_cap") == default


def test_decompose_has_no_cap(capsys, tmp_path):
    # decompose is one pass over its input's terms, so there is no
    # decompose_cap to set: a config naming it is refused like any unknown
    cfg = tmp_path / "caps.conf"
    cfg.write_text("decompose_cap = 5\n")
    rc, out, err = run(capsys, ["product", "--symbols", "C", "--sizes", "2",
                                "--mu", "2,1", "--n", "2",
                                "--config", str(cfg)])
    assert (rc, out, err) == (2, "", "error: unknown cap 'decompose_cap'\n")
    with pytest.raises(KeyError, match="unknown cap 'decompose_cap'"):
        limits.get_cap("decompose_cap")


def test_one_parser_and_no_state_between_calls(capsys):
    from howekit import cli
    from howekit.bicrystal import statistics
    from howekit.crystals import TensorElement
    cli._build_parser.cache_clear()
    star = ["star", "--element", "-4,-3;-2,-1,1;-4", "--n", "4"]
    king = '[["1","2b","3"],["1","3"],["2","3"],["2"]]'
    rc, out, _ = run(capsys, ["star", "--element", king, "--m", "3",
                              "--n", "4", "--inverse"])
    assert (rc, out) == (0, "[[-4,-3],[-2,-1,1],[-4]]\n")
    rc, out, _ = run(capsys, star)
    assert (rc, out) == (0, king + "\n")

    rc, out, _ = run(capsys, ["charge", "--king", "[[],[]]", "--m", "2"])
    assert (rc, out) == (0, '{"charge":0}\n')
    rc, out, _ = run(capsys, ["charge", "--element", "-2,-1;-2,-1",
                              "--n", "2"])
    expected = statistics(TensorElement([(-2, -1), (-2, -1)], 2))
    assert (rc, json.loads(out)) == (0, expected)

    hat = ["hat", "--partition", "5,4,2,1", "--n", "4", "--m", "5"]
    rc, out, err = run(capsys, hat[:-2])
    assert (rc, out) == (2, "")
    assert "the following arguments are required: --m" in err
    assert run(capsys, hat) == (0, "[3,2,2,1,0]\n", "")

    helps = [run(capsys, ["--help"]) for _ in range(2)]
    assert helps[0] == helps[1]
    assert helps[0][0] == 0 and helps[0][1].startswith("usage: howekit")
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 7)  # eight dispatch calls


def _run_held(args):
    """Run the CLI in a child held to 1 GiB of address space and 60 s, so
    that a sweep which starts work it should refuse fails the test instead
    of filling memory."""
    resource = pytest.importorskip("resource")
    gib = (1 << 30, 1 << 30)
    src = str(Path(howekit.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "howekit.cli"] + args,
        capture_output=True, text=True, timeout=60, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, gib))
    assert "Traceback" not in proc.stderr
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("cmd, letters, subsets", [
    ("verify-schur", 1500, 561375500),
    ("verify-howe", 3000, 4495501000),
])
def test_wide_duality_sweeps_exit_two_at_once(cmd, letters, subsets):
    # building e_2 of 1500 letters would fail here instead of filling memory
    assert _run_held([cmd, "--n", "1500", "--m", "1"]) == (
        2, "", "error: e_3 of %d letters has %d subsets, above enum_cap "
        "10000000\n" % (letters, subsets))


def test_high_rank_duality_sweep_exits_two_at_once():
    # the rank is checked before the first product, which would recurse
    # once per column
    assert _run_held(["verify-schur", "--n", "1", "--m", "1500"]) == (
        2, "", "error: rank 1500 above enumeration cap for type A\n")


def test_branch_above_the_rank_cap_exits_two(capsys):
    # the Weyl sum over 2^12 12! signed permutations is refused up front
    rc, out, err = run(capsys, ["branch", "--symbols", "A", "--sizes", "12",
                                "--kappa", "3,2,1", "--nu", "0," * 11 + "0"])
    assert (rc, out, err) == (
        2, "", "error: rank 12 above enumeration cap for type C\n")
