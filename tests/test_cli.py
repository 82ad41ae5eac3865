"""CLI integration: exit codes, golden lines, determinism, file errors."""

import json
from fractions import Fraction
import subprocess
import sys
from pathlib import Path

import pytest

import plk
from plk import Multivector, from_factors, run_all_criteria, wedge
from plk.cli import main
from plk.criteria import COUNTED, CRITERIA, equation_count, run_criterion
from plk.multivector import InputError
from plk.randgen import random_multivector, random_nonsimple, random_simple, random_vector
from plk.serialize import dump, dumps, emit_multivector, loads

from reference import project_tensor_square
from util import seeded


def write_mv(tmp_path, m, name="p.json"):
    path = tmp_path / name
    dump(m, str(path))
    return str(path)


def nonsimple(dim=4):
    return Multivector.basis(dim, (1, 2)) + Multivector.basis(dim, (3, 4))


def counterexample_4form():
    return wedge(
        Multivector.basis(7, (1,)),
        Multivector.basis(7, (2, 3, 4)) + Multivector.basis(7, (5, 6, 7)),
    )


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- check -------------------------------------------------------------------------


def test_check_simple_exits_zero(tmp_path, capsys):
    path = write_mv(tmp_path, Multivector.basis(4, (1, 2, 3)))
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 0
    assert out.endswith("result: simple\n")


def test_check_nonsimple_all_criteria_false(tmp_path, capsys):
    path = write_mv(tmp_path, nonsimple())
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 8  # seven criteria + result
    assert all(" false " in line for line in lines[:-1])
    assert lines[0].startswith("classical")
    assert lines[-1] == "result: not-simple"


def test_check_optimal_golden_witness(tmp_path, capsys):
    path = write_mv(tmp_path, counterexample_4form())
    code, out, _ = run_cli(capsys, "check", "--criterion", "optimal", path)
    assert code == 1
    assert out.splitlines()[0] == (
        "optimal            false  equations=18  "
        "witness: pairs=({1,1},{2,5}), skew over e_{3,4,6,7}: coefficient = 1/6"
    )


def test_check_randomized_flags_probabilistic(tmp_path, capsys):
    path = write_mv(tmp_path, Multivector.basis(7, (1, 2, 3, 4)))
    code, out, _ = run_cli(
        capsys, "check", "--criterion", "contraction", "--mode", "randomized",
        "--trials", "4", "--seed", "9", path,
    )
    assert code == 0
    assert "[probabilistic, seed=9]" in out


def test_check_json_output(tmp_path, capsys):
    path = write_mv(tmp_path, nonsimple())
    code, out, _ = run_cli(capsys, "check", "--json", path)
    assert code == 1
    payload = json.loads(out)
    assert payload["simple"] is False
    assert payload["agreement"] is True
    assert len(payload["criteria"]) == 7
    assert payload["criteria"][0]["criterion"] == "classical"


def test_check_malformed_file_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 4, "grade": 2, "terms": [{"indices": [1, 9], "coeff": 1}]}')
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "term 0" in err and "[1, 9]" in err


def test_check_duplicate_term_exit_two(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text(
        '{"dim": 4, "grade": 2, "terms": [{"indices": [1, 2], "coeff": 1},'
        ' {"indices": [1, 2], "coeff": 2}]}'
    )
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2 and "duplicate" in err


def _digit_limit():
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else 0


_TERM = '{"dim": 4, "grade": 2, "terms": [{"indices": [1, 2], "coeff": %s}]}'
_UNDECODABLE = {
    "not-utf8": (_TERM % '"1\xff"').encode("latin-1"),
    "nested-arrays": b"[" * 100_000 + b"]" * 100_000,
    "long-integer": (_TERM % ("1" * (_digit_limit() + 1))).encode(),
    "long-fraction": (_TERM % ('"%s/3"' % ("1" * (_digit_limit() + 1)))).encode(),
}


@pytest.mark.parametrize("command", ("check", "factor", "family"))
@pytest.mark.parametrize("case", _UNDECODABLE)
def test_undecodable_file_exits_two(case, command, tmp_path):
    if case.startswith("long-") and not _digit_limit():
        pytest.skip("this Python has no integer digit limit")
    content = _UNDECODABLE[case]
    if command == "family" and case != "nested-arrays":
        content = b"[" + content + b"]"
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    # in a child, so an uncaught exception shows as its traceback and exit 1
    proc = subprocess.run(
        [sys.executable, "-m", "plk", command, str(path)],
        capture_output=True, text=True, timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_check_missing_file_exit_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, "check", str(tmp_path / "absent.json"))
    assert code == 2 and "absent.json" in err


def test_check_rejects_covector_file(tmp_path, capsys):
    path = write_mv(tmp_path, Multivector.basis(4, (1, 2), dual=True))
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2 and "dual" in err


# -- factor ------------------------------------------------------------------------


def test_factor_basis(tmp_path, capsys):
    path = write_mv(tmp_path, Multivector.basis(4, (1, 2, 3)))
    code, out, _ = run_cli(capsys, "factor", path)
    assert code == 0
    factors = [loads(json.dumps(obj)) for obj in json.loads(out)]
    assert factors == [Multivector.basis(4, (i,)) for i in (1, 2, 3)]


def test_factor_nonsimple(tmp_path, capsys):
    path = write_mv(tmp_path, nonsimple())
    code, out, _ = run_cli(capsys, "factor", path)
    assert code == 1 and out.strip() == "not simple"


def test_factor_round_trip_pipeline(tmp_path, capsys):
    rng = seeded(601)
    from plk.randgen import random_simple

    p = random_simple(rng, 6, 3, 7)
    path = write_mv(tmp_path, p)
    code, out, _ = run_cli(capsys, "factor", path)
    assert code == 0
    factors = [loads(json.dumps(obj)) for obj in json.loads(out)]
    assert dumps(from_factors(factors)) == dumps(p)


# -- count and dims ------------------------------------------------------------------


def test_count_golden_line(capsys):
    code, out, _ = run_cli(capsys, "count", "--dim", "8", "--grade", "4")
    assert code == 0
    assert out == "n=8 s=4: classical=3136 dual=3136 improved=784 dual-improved=784 optimal=720\n"


def test_count_small_case(capsys):
    code, out, _ = run_cli(capsys, "count", "--dim", "4", "--grade", "2")
    assert code == 0
    assert "classical=16" in out and "improved=1 " in out


def test_count_matches_library(capsys):
    from plk import equation_count

    code, out, _ = run_cli(capsys, "count", "--json", "--dim", "6", "--grade", "3")
    counts = json.loads(out)["counts"]
    for name, value in counts.items():
        assert value == equation_count(6, 3, name)


def test_count_invalid_pair(capsys):
    code, _, err = run_cli(capsys, "count", "--dim", "4", "--grade", "5")
    assert code == 2 and "0 <= s <= n" in err


def test_dims_pass(capsys):
    code, out, _ = run_cli(capsys, "dims", "--dim", "6", "--grade", "3")
    assert code == 0
    assert "Y[3,3] dim 175" in out
    assert out.count("PASS") == 5 and "FAIL" not in out


# `plk dims --json` per (n, s): the dimensions of Y[s+j, s-j] for j = 0..s,
# then the left side of each identity (every right side equals it).
DIMS_GOLDEN = {
    (6, 3): ([175, 189, 35, 1], [400, 210, 190, 225, 36]),
    (1, 1): ([1, 0], [1, 1, 0, 0, 0]),
    (5, 4): ([15, 10, 0, 0, 0], [25, 15, 10, 10, 0]),  # Y[6,2] has more rows than n
    (8, 4): ([1764, 2352, 720, 63, 1], [4900, 2485, 2415, 3136, 784]),
    (64, 32): (
        [
            200462103514932888645047564978068260, 532715901382243800966769999664901120,
            696516981263042575141586353303360512, 677169287339069170276542287933822720,
            534852795144465673570191858225096960, 354922322662809477444547136452234240,
            201039917032780193517540685682734080, 98006959553480344339801084270332864,
            41297796758109405457481123155752000, 15071464843295629362634167394176000,
            4765845064022406039950555508864000, 1304933767529944510938842579808000,
            308897365260711502589387857056000, 63064112378368321889704893312000,
            11069500066883590058570503296000, 1664003512209332772813130614000,
            213212256935153452920407178000, 23156143298654241674749676544,
            2117590959095914340004295680, 161790993236538153836087040,
            10233131529022764446972160, 529990551939751726853120,
            22185651011431467635712, 738892855397731702720, 19205030307679594560,
            380288401345981440, 5563022673761280, 57729480576768, 401966772480,
            1731824640, 4060160, 4095, 1,
        ],
        [
            3358511241965567934376258434786405156, 1679255620982783968104441287864497845,
            1679255620982783966271817146921907311, 3158049138450635045731210869808336896,
            2625333237068391244764440870143435776,
        ],
    ),
}
IDENTITY_NAMES = (
    "total = C(n,s)^2",
    "even tail = C(n,s)(C(n,s)+1)/2",
    "odd tail = C(n,s)(C(n,s)-1)/2",
    "tail j>=1 = C(n,s+1)C(n,s-1)",
    "tail j>=2 = C(n,s+2)C(n,s-2)",
)


@pytest.mark.parametrize("case", DIMS_GOLDEN, ids=lambda c: "{}-{}".format(*c))
def test_dims_json_golden(case, capsys):
    n, s = case
    code, out, _ = run_cli(capsys, "dims", "--dim", str(n), "--grade", str(s), "--json")
    assert code == 0
    dims, sides = DIMS_GOLDEN[case]
    golden = {
        "dim": n,
        "grade": s,
        "components": [{"shape": [s + j, s - j], "dim": d} for j, d in enumerate(dims)],
        "identities": [
            {"name": name, "lhs": v, "rhs": v, "ok": True}
            for name, v in zip(IDENTITY_NAMES, sides)
        ],
        "passed": True,
    }
    assert out == json.dumps(golden, indent=2) + "\n"


def test_dims_invalid(capsys):
    code, _, err = run_cli(capsys, "dims", "--dim", "4", "--grade", "0")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--dim", "65", "--grade", "3"),
        ("count", "--dim", "8000", "--grade", "4000"),
        ("dims", "--dim", "3000", "--grade", "1500"),
    ],
)
def test_count_and_dims_refuse_dim_past_64(argv):
    # in a child with a timeout, so a count that runs for long fails the test
    proc = subprocess.run(
        [sys.executable, "-m", "plk", *argv], capture_output=True, text=True, timeout=30,
    )
    message = f"error: dim must be an integer in [1, 64], got {argv[2]}\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)


# -- random ------------------------------------------------------------------------


def test_random_simple_passes_everything(tmp_path, capsys):
    out_path = tmp_path / "s.json"
    code, _, _ = run_cli(
        capsys, "random", "--dim", "6", "--grade", "3", "--simple", "--seed", "1",
        str(out_path),
    )
    assert code == 0
    p = loads(out_path.read_text())
    assert all(rep.verdict for rep in run_all_criteria(p))


def test_random_nonsimple_fails_everything(capsys):
    code, out, _ = run_cli(
        capsys, "random", "--dim", "4", "--grade", "2", "--nonsimple", "--seed", "1"
    )
    assert code == 0
    p = loads(out)
    assert not any(rep.verdict for rep in run_all_criteria(p))


def test_random_deterministic(capsys):
    args = ("random", "--dim", "5", "--grade", "2", "--simple", "--seed", "11")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


@pytest.mark.parametrize("kind", ("--simple", "--nonsimple"))
def test_random_file_equals_stdout(kind, tmp_path, capsys):
    args = ("random", "--dim", "6", "--grade", "3", kind, "--seed", "4", "--bound", "3")
    out_path = tmp_path / "r.json"
    assert run_cli(capsys, *args, str(out_path)) == (0, "", "")
    _, out, _ = run_cli(capsys, *args)
    assert out_path.read_bytes() == out.encode("utf-8")


def test_random_grade_one_nonsimple_impossible(capsys):
    code, _, err = run_cli(
        capsys, "random", "--dim", "5", "--grade", "1", "--nonsimple"
    )
    assert code == 2 and "decomposable" in err


def test_random_requires_kind(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["random", "--dim", "5", "--grade", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--dim", "0", "--grade", "1", "--simple"), "dim must be an integer in [1, 64], got 0"),
        (("--dim", "65", "--grade", "1", "--simple"), "dim must be an integer in [1, 64], got 65"),
        (("--dim", "3", "--grade", "5", "--simple"), "grade must be an integer in [0, 3], got 5"),
        (("--dim", "3", "--grade", "-1", "--simple"), "grade must be an integer in [0, 3], got -1"),
        (("--dim", "3", "--grade", "5", "--nonsimple"), "grade must be an integer in [0, 3], got 5"),
        (("--dim", "4", "--grade", "2", "--simple", "--bound", "0"), "--bound must be >= 1"),
    ],
)
def test_random_out_of_range_exits_two(argv, message):
    # in a child with a timeout, so a generator that loops fails the test
    proc = subprocess.run(
        [sys.executable, "-m", "plk", "random", *argv],
        capture_output=True, text=True, timeout=30,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "call",
    [
        lambda rng: random_vector(rng, 0),
        lambda rng: random_vector(rng, 4, bound=0),
        lambda rng: random_multivector(rng, 4, 2, bound=0),
        lambda rng: random_multivector(rng, 4, 5),
        lambda rng: random_simple(rng, 3, 5),
        lambda rng: random_simple(rng, 3, 0, bound=0),
        lambda rng: random_nonsimple(rng, 6, -1),
    ],
)
def test_generators_reject_unsatisfiable_arguments(call):
    with pytest.raises(InputError, match=r"(dim|grade|bound) must be"):
        call(seeded(1))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda rng: random_multivector(rng, 4, True, bound=3),
         "grade must be an integer in [0, 4], got True"),
        (lambda rng: random_multivector(rng, 4, 2, bound=True),
         "bound must be an integer >= 1, got True"),
        (lambda rng: random_vector(rng, True), "dim must be an integer in [1, 64], got True"),
    ],
    ids=["grade", "bound", "dim"],
)
def test_generators_refuse_bool(call, message):
    with pytest.raises(InputError) as exc:
        call(seeded(1))
    assert str(exc.value) == message


@pytest.mark.parametrize("dim", (4, 7))
def test_random_nonsimple_refuses_the_grades_with_no_nonsimple_vector(dim):
    # grades 0, 1, dim-1 and dim hold decomposable vectors only, so a draw
    # could never succeed; each is refused up front, and grade 2 is drawn
    for grade in (0, 1, dim - 1, dim):
        with pytest.raises(InputError, match=f"every multivector of grade {grade} in dimension {dim} is decomposable"):
            random_nonsimple(seeded(1), dim, grade)
    assert random_nonsimple(seeded(1), dim, 2).grade == 2


# -- family ------------------------------------------------------------------------


def family_file(tmp_path, members, name="fam.json"):
    path = tmp_path / name
    path.write_text(json.dumps([emit_multivector(m) for m in members]))
    return str(path)


def test_family_intersection_branch(tmp_path, capsys):
    members = [Multivector.basis(4, (1, k)) for k in (2, 3, 4)]
    code, out, _ = run_cli(capsys, "family", family_file(tmp_path, members))
    assert code == 0 and out.strip() == "branch: intersection-bound"


def test_family_span_branch(tmp_path, capsys):
    members = [Multivector.basis(4, idx) for idx in ((1, 2), (1, 3), (2, 3))]
    code, out, _ = run_cli(capsys, "family", family_file(tmp_path, members))
    assert code == 0 and out.strip() == "branch: span-bound"


def test_family_singleton_both(tmp_path, capsys):
    members = [Multivector.basis(4, (1, 2, 3))]
    code, out, _ = run_cli(capsys, "family", family_file(tmp_path, members))
    assert code == 0 and out.strip() == "branch: both"


def test_family_grade_zero_both(tmp_path, capsys):
    members = [Multivector.scalar(4, 3), Multivector.scalar(4, Fraction(-1, 2))]
    code, out, _ = run_cli(capsys, "family", family_file(tmp_path, members))
    assert code == 0 and out.strip() == "branch: both"


def test_family_fraction_scaled(tmp_path, capsys):
    members = [Fraction(2, 3) * Multivector.basis(4, (1, k)) for k in (2, 3, 4)]
    code, out, _ = run_cli(capsys, "family", family_file(tmp_path, members))
    assert code == 0 and out.strip() == "branch: intersection-bound"


def test_family_pivot_disagreement_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("plk.criteria._pivot_vectors", lambda omega: None)
    members = [Multivector.basis(4, (1, k)) for k in (2, 3, 4)]
    code, out, err = run_cli(capsys, "family", family_file(tmp_path, members))
    assert (code, out) == (3, "") and "pivot lemma rejects" in err


def test_family_invalid_names_offender(tmp_path, capsys):
    members = [Multivector.basis(4, (1, 2)), nonsimple()]
    code, _, err = run_cli(capsys, "family", family_file(tmp_path, members))
    assert code == 2 and "member 1" in err


def test_family_bad_pair_sum(tmp_path, capsys):
    members = [Multivector.basis(4, (1, 2)), Multivector.basis(4, (3, 4))]
    code, _, err = run_cli(capsys, "family", family_file(tmp_path, members))
    assert code == 2 and "sum of members 0 and 1" in err


# -- flag validation and module entry point -----------------------------------------


def test_check_grade_one_runs_component_test(tmp_path, capsys):
    path = write_mv(tmp_path, Multivector.basis(5, (2,)))
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 0
    # no (s+2, s-2) component below grade 2, so the test passes with 0 equations
    assert "\noptimal            true   equations=0\n" in out
    assert out.endswith("result: simple\n")


DEGENERATE = {
    "zero-0": lambda n: Multivector.zero(n, 0),
    "zero-1": lambda n: Multivector.zero(n, 1),
    "scalar": lambda n: Multivector.scalar(n, 3),
    "vector": lambda n: random_vector(seeded(23, n), n, 5),
}


@pytest.mark.parametrize("kind", DEGENERATE)
@pytest.mark.parametrize("n", range(1, 7))
def test_degenerate_grades_pass_every_criterion(n, kind, tmp_path, capsys):
    # Grades 0 and 1 are decomposable: every criterion passes, the counted
    # ones with the equation count of ``plk count``, and the (s+2, s-2)
    # projection is empty.
    P = DEGENERATE[kind](n)
    s = P.grade
    for mode in ("symbolic", "randomized"):
        for name in CRITERIA:
            rep = run_criterion(P, name, mode=mode)
            assert rep.verdict, (name, mode)
            if name in COUNTED:
                assert rep.equations_checked == equation_count(n, s, name), name
    assert project_tensor_square(P) == {}

    path = write_mv(tmp_path, P)
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 0
    assert len(out.splitlines()) == len(CRITERIA) + 1 == 8
    assert run_cli(capsys, "check", "--criterion", "optimal", path)[0] == 0
    code, _, err = run_cli(capsys, "factor", path)
    if s == 0:
        assert code == 2 and "no vector factors" in err
    else:
        assert code == 0


def test_probabilistic_miss_is_not_a_disagreement(tmp_path, capsys):
    # One trial at bound 1 misses this non-decomposable input: a randomized
    # pass is probabilistic, so it is not an internal error.
    P = Multivector.from_terms(6, 3, [((1, 3, 4), 1), ((1, 3, 6), -1), ((1, 5, 6), -2)])
    path = write_mv(tmp_path, P)
    argv = ("check", "--mode", "randomized", "--trials", "1", "--bound", "1", "--seed", "32")
    code, out, err = run_cli(capsys, *argv, path)
    assert "contraction(k=2)   true " in out and "[probabilistic, seed=32]" in out
    assert (code, out.splitlines()[-1], err) == (1, "result: not-simple", "")
    code, out, err = run_cli(capsys, *argv, "--json", path)
    payload = json.loads(out)
    assert (code, payload["simple"], payload["agreement"], err) == (1, False, True, "")
    # Alone, the probabilistic pass has nothing to disagree with.
    code, out, err = run_cli(capsys, *argv, "--criterion", "contraction", "--json", path)
    payload = json.loads(out)
    assert (code, payload["simple"], payload["agreement"], err) == (0, True, True, "")


@pytest.mark.parametrize("command", ("check", "factor", "family"))
def test_grade_above_dim_file_exits_two(command, tmp_path, capsys):
    obj = {"dim": 4, "grade": 7, "terms": []}
    path = tmp_path / "p.json"
    path.write_text(json.dumps([obj] if command == "family" else obj))
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert "field 'grade' (7) exceeds field 'dim' (4)" in err


def test_check_disagreement_exits_three(tmp_path, capsys, monkeypatch):
    # force an (impossible) disagreement to pin the exit-code contract
    from plk.criteria import CriterionReport

    monkeypatch.setattr(
        "plk.cli.run_all_criteria",
        lambda p, **kw: [
            CriterionReport("classical", True, 1),
            CriterionReport("oracle", False, 1, __import__("plk").Witness((), (), 1, "x")),
        ],
    )
    path = write_mv(tmp_path, nonsimple())
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 3 and "disagree" in err


def test_bad_trials_rejected(tmp_path, capsys):
    path = write_mv(tmp_path, nonsimple())
    code, _, err = run_cli(capsys, "check", "--trials", "0", path)
    assert code == 2 and "--trials" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("factor", "--seed", "1", "FILE"),
        ("factor", "--bound", "3", "FILE"),
        ("factor", "--json", "FILE"),
        ("count", "--dim", "6", "--grade", "3", "--seed", "1"),
        ("count", "--dim", "6", "--grade", "3", "--bound", "3"),
        ("dims", "--dim", "6", "--grade", "3", "--seed", "1"),
        ("dims", "--dim", "6", "--grade", "3", "--bound", "3"),
        ("family", "--seed", "1", "FILE"),
        ("family", "--bound", "3", "FILE"),
        ("random", "--dim", "6", "--grade", "3", "--simple", "--json"),
    ],
)
def test_unread_flags_rejected(argv, tmp_path, capsys):
    path = write_mv(tmp_path, nonsimple())
    with pytest.raises(SystemExit) as exc:
        main([path if a == "FILE" else a for a in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    path = write_mv(tmp_path, nonsimple())
    proc = subprocess.run(
        [sys.executable, "-m", "plk", "check", path],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout.endswith("result: not-simple\n")


def test_import_loads_no_dataclasses_machinery():
    # -S skips site, so no module that a .pth file imports can hide a regression
    src = str(Path(plk.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import plk.cli; "
        "print(*[m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize') "
        "if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"
