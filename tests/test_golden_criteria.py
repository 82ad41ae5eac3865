"""Golden outputs of the linear Pluecker-type criteria, the optimal
component test, both modes of the contraction criterion, the oracle, the
default ``plk check`` run of all seven, and ``plk count``.

The expectations are literal CLI output, so any change to a verdict, an
equation count, a witness or its text shows up byte for byte.
"""

import json
from fractions import Fraction

import pytest

from plk import Multivector, wedge
from plk.cli import main
from plk.criteria import CRITERIA
from plk.randgen import random_nonsimple, random_simple
from plk.serialize import dump

from reference import linear_equation_value
from util import seeded

LINEAR = ("classical", "dual", "improved", "dual-improved")
COUNT_CASES = ((1, 0), (1, 1), (4, 2), (5, 3), (6, 3), (8, 4), (10, 3), (7, 7), (64, 32))


def e(dim, *idx):
    return Multivector.basis(dim, idx)


INPUTS = {
    "dense-6-3": lambda: random_nonsimple(seeded(5, 6, 3), 6, 3, 5),
    "dense-7-4": lambda: random_nonsimple(seeded(5, 7, 4), 7, 4, 5),
    "sparse-6-3": lambda: e(6, 1, 2, 3) + e(6, 4, 5, 6),
    "sparse-7-4": lambda: wedge(e(7, 1), e(7, 2, 3, 4) + e(7, 5, 6, 7)),
    "simple-6-3": lambda: random_simple(seeded(6, 6, 3), 6, 3, 5),
    "third-6-3": lambda: random_nonsimple(seeded(5, 6, 3), 6, 3, 5) * Fraction(1, 3),
    "third-sparse-6-3": lambda: (e(6, 1, 2, 3) + e(6, 4, 5, 6)) * Fraction(1, 3),
    **{
        f"grade-{s}": (lambda s=s: random_simple(seeded(6, 5, s), 5, s, 5))
        for s in (0, 1, 4, 5)
    },
}
# Inputs only the optimal component test is pinned on.
OPTIMAL_INPUTS = {
    "dense-8-4": lambda: random_nonsimple(seeded(5, 8, 4), 8, 4, 5),
    "sparse-8-4": lambda: e(8, 1, 2, 3, 4) + e(8, 5, 6, 7, 8),
    "simple-7-4": lambda: random_simple(seeded(6, 7, 4), 7, 4, 5),
    "two-sevenths-simple-8-4": lambda: random_simple(seeded(6, 8, 4), 8, 4, 5) * Fraction(2, 7),
    "five-thirds-sparse-8-4": lambda: (
        wedge(e(8, 1) + e(8, 8), e(8, 2, 3, 4) + e(8, 5, 6, 7)) * Fraction(-5, 3)
    ),
}
OPTIMAL_CASES = ("dense-7-4", "sparse-7-4", "third-6-3", "simple-6-3", *OPTIMAL_INPUTS)
RANDOMIZED_CASES = (
    ("dense-7-4", 2),
    ("sparse-7-4", 2),
    ("simple-6-3", 2),
    ("dense-6-3", 3),
    ("sparse-6-3", 3),
    ("simple-6-3", 3),
    ("sparse-7-4", 4),
)


def golden_input(name):
    return {**INPUTS, **OPTIMAL_INPUTS}[name]()


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def write_input(tmp_path, name):
    path = str(tmp_path / f"{name}.json")
    dump(golden_input(name), path)
    return path


@pytest.mark.parametrize("name", INPUTS)
@pytest.mark.parametrize("criterion", LINEAR)
def test_linear_criterion_stdout_is_golden(name, criterion, tmp_path, capsys):
    path = write_input(tmp_path, name)
    assert run_cli(capsys, "check", "--criterion", criterion, path) == (
        LINEAR_STDOUT[(name, criterion)]
    )


def test_linear_witness_values_match_the_definitions():
    # Every failing linear criterion's witness value, re-evaluated on index
    # tuples with inversion signs: i(e^S)P ^ P or i(i_P e^Q)P at the witness
    # component, int and Fraction inputs alike.
    failing = 0
    for name in INPUTS:
        P = golden_input(name)
        terms = dict(P.items())
        for criterion in LINEAR:
            rep = CRITERIA[criterion](P)
            if rep.verdict:
                continue
            failing += 1
            w = rep.witness
            (quantifier,) = w.equation
            value = linear_equation_value(terms, P.grade, criterion, quantifier, w.component)
            assert value == w.value != 0, (name, criterion)
    assert failing == 6 * len(LINEAR)  # the six non-decomposable inputs


def test_linear_criterion_json_is_golden(tmp_path, capsys):
    path = write_input(tmp_path, "sparse-7-4")
    code, out = run_cli(capsys, "check", "--criterion", "dual-improved", "--json", path)
    assert code == 1
    assert out == JSON_STDOUT.replace('"FILE"', json.dumps(path))


@pytest.mark.parametrize("name", OPTIMAL_CASES)
def test_optimal_stdout_is_golden(name, tmp_path, capsys):
    path = write_input(tmp_path, name)
    assert run_cli(capsys, "check", "--criterion", "optimal", path) == OPTIMAL_STDOUT[name]


@pytest.mark.parametrize("case", COUNT_CASES, ids=lambda c: "{}-{}".format(*c))
def test_count_stdout_is_golden(case, capsys):
    n, s = case
    assert run_cli(capsys, "count", "--dim", str(n), "--grade", str(s)) == (
        0, COUNT_STDOUT[case]
    )


def test_count_json_is_golden(capsys):
    assert run_cli(capsys, "count", "--dim", "9", "--grade", "4", "--json") == (0, COUNT_JSON)


@pytest.mark.parametrize("case", RANDOMIZED_CASES, ids=lambda c: "{}-k{}".format(*c))
def test_randomized_contraction_stdout_is_golden(case, tmp_path, capsys):
    name, k = case
    path = write_input(tmp_path, name)
    argv = (
        "check", "--criterion", "contraction", "--mode", "randomized", "--k", str(k),
        "--trials", "6", "--seed", "11", "--bound", "4", path,
    )
    assert run_cli(capsys, *argv) == RANDOMIZED_STDOUT[case]


@pytest.mark.parametrize("name", INPUTS)
@pytest.mark.parametrize("k", (2, 3))
def test_exact_contraction_stdout_is_golden(name, k, tmp_path, capsys):
    path = write_input(tmp_path, name)
    argv = ("check", "--criterion", "contraction", "--k", str(k), path)
    assert run_cli(capsys, *argv) == EXACT_STDOUT[(name, k)]


@pytest.mark.parametrize("name", INPUTS)
def test_check_all_stdout_is_golden(name, tmp_path, capsys):
    path = write_input(tmp_path, name)
    assert run_cli(capsys, "check", path) == CHECK_STDOUT[name]


@pytest.mark.parametrize("name", INPUTS)
def test_oracle_stdout_is_golden(name, tmp_path, capsys):
    path = write_input(tmp_path, name)
    assert run_cli(capsys, "check", "--criterion", "oracle", path) == ORACLE_STDOUT[name]


# -- expectations ---------------------------------------------------------------

LINEAR_STDOUT = {('dense-6-3', 'classical'): (1,
                              'classical          false  equations=7  witness: Phi=e^{1,2} '
                              '-> component e_{1,3,4,5} = -12\n'
                              'result: not-simple\n'),
 ('dense-6-3', 'dual'): (1,
                         'dual               false  equations=4  witness: Psi=e^{1,2,3,4} '
                         '-> component e_{1,5} = -12\n'
                         'result: not-simple\n'),
 ('dense-6-3', 'dual-improved'): (1,
                                  'dual-improved      false  equations=1  witness: '
                                  'Psi=e^{1,2,3,4,5} -> component e_{1} = 24\n'
                                  'result: not-simple\n'),
 ('dense-6-3', 'improved'): (1,
                             'improved           false  equations=1  witness: Psi=e^{1} -> '
                             'component e_{1,2,3,4,5} = 24\n'
                             'result: not-simple\n'),
 ('dense-7-4', 'classical'): (1,
                              'classical          false  equations=7  witness: '
                              'Phi=e^{1,2,3} -> component e_{1,2,4,5,6} = 28\n'
                              'result: not-simple\n'),
 ('dense-7-4', 'dual'): (1,
                         'dual               false  equations=4  witness: '
                         'Psi=e^{1,2,3,4,5} -> component e_{1,2,6} = 28\n'
                         'result: not-simple\n'),
 ('dense-7-4', 'dual-improved'): (1,
                                  'dual-improved      false  equations=1  witness: '
                                  'Psi=e^{1,2,3,4,5,6} -> component e_{1,2} = 56\n'
                                  'result: not-simple\n'),
 ('dense-7-4', 'improved'): (1,
                             'improved           false  equations=1  witness: Psi=e^{1,2} '
                             '-> component e_{1,2,3,4,5,6} = 56\n'
                             'result: not-simple\n'),
 ('grade-0', 'classical'): (0, 'classical          true   equations=0\nresult: simple\n'),
 ('grade-0', 'dual'): (0, 'dual               true   equations=0\nresult: simple\n'),
 ('grade-0', 'dual-improved'): (0,
                                'dual-improved      true   equations=0\nresult: simple\n'),
 ('grade-0', 'improved'): (0, 'improved           true   equations=0\nresult: simple\n'),
 ('grade-1', 'classical'): (0, 'classical          true   equations=10\nresult: simple\n'),
 ('grade-1', 'dual'): (0, 'dual               true   equations=10\nresult: simple\n'),
 ('grade-1', 'dual-improved'): (0,
                                'dual-improved      true   equations=0\nresult: simple\n'),
 ('grade-1', 'improved'): (0, 'improved           true   equations=0\nresult: simple\n'),
 ('grade-4', 'classical'): (0, 'classical          true   equations=10\nresult: simple\n'),
 ('grade-4', 'dual'): (0, 'dual               true   equations=10\nresult: simple\n'),
 ('grade-4', 'dual-improved'): (0,
                                'dual-improved      true   equations=0\nresult: simple\n'),
 ('grade-4', 'improved'): (0, 'improved           true   equations=0\nresult: simple\n'),
 ('grade-5', 'classical'): (0, 'classical          true   equations=0\nresult: simple\n'),
 ('grade-5', 'dual'): (0, 'dual               true   equations=0\nresult: simple\n'),
 ('grade-5', 'dual-improved'): (0,
                                'dual-improved      true   equations=0\nresult: simple\n'),
 ('grade-5', 'improved'): (0, 'improved           true   equations=0\nresult: simple\n'),
 ('simple-6-3', 'classical'): (0,
                               'classical          true   equations=225\nresult: simple\n'),
 ('simple-6-3', 'dual'): (0, 'dual               true   equations=225\nresult: simple\n'),
 ('simple-6-3', 'dual-improved'): (0,
                                   'dual-improved      true   equations=36\n'
                                   'result: simple\n'),
 ('simple-6-3', 'improved'): (0,
                              'improved           true   equations=36\nresult: simple\n'),
 ('sparse-6-3', 'classical'): (1,
                               'classical          false  equations=15  witness: '
                               'Phi=e^{1,2} -> component e_{3,4,5,6} = 1\n'
                               'result: not-simple\n'),
 ('sparse-6-3', 'dual'): (1,
                          'dual               false  equations=15  witness: '
                          'Psi=e^{1,2,3,4} -> component e_{5,6} = 1\n'
                          'result: not-simple\n'),
 ('sparse-6-3', 'dual-improved'): (1,
                                   'dual-improved      false  equations=6  witness: '
                                   'Psi=e^{1,2,3,4,5} -> component e_{6} = 1\n'
                                   'result: not-simple\n'),
 ('sparse-6-3', 'improved'): (1,
                              'improved           false  equations=6  witness: Psi=e^{1} '
                              '-> component e_{2,3,4,5,6} = 1\n'
                              'result: not-simple\n'),
 ('sparse-7-4', 'classical'): (1,
                               'classical          false  equations=15  witness: '
                               'Phi=e^{1,2,3} -> component e_{1,4,5,6,7} = -1\n'
                               'result: not-simple\n'),
 ('sparse-7-4', 'dual'): (1,
                          'dual               false  equations=15  witness: '
                          'Psi=e^{1,2,3,4,5} -> component e_{1,6,7} = -1\n'
                          'result: not-simple\n'),
 ('sparse-7-4', 'dual-improved'): (1,
                                   'dual-improved      false  equations=6  witness: '
                                   'Psi=e^{1,2,3,4,5,6} -> component e_{1,7} = 1\n'
                                   'result: not-simple\n'),
 ('sparse-7-4', 'improved'): (1,
                              'improved           false  equations=6  witness: Psi=e^{1,2} '
                              '-> component e_{1,3,4,5,6,7} = 1\n'
                              'result: not-simple\n'),
 ('third-6-3', 'classical'): (1,
                              'classical          false  equations=7  witness: Phi=e^{1,2} '
                              '-> component e_{1,3,4,5} = -4/3\n'
                              'result: not-simple\n'),
 ('third-6-3', 'dual'): (1,
                         'dual               false  equations=4  witness: Psi=e^{1,2,3,4} '
                         '-> component e_{1,5} = -4/3\n'
                         'result: not-simple\n'),
 ('third-6-3', 'dual-improved'): (1,
                                  'dual-improved      false  equations=1  witness: '
                                  'Psi=e^{1,2,3,4,5} -> component e_{1} = 8/3\n'
                                  'result: not-simple\n'),
 ('third-6-3', 'improved'): (1,
                             'improved           false  equations=1  witness: Psi=e^{1} -> '
                             'component e_{1,2,3,4,5} = 8/3\n'
                             'result: not-simple\n'),
 ('third-sparse-6-3', 'classical'): (1,
                                     'classical          false  equations=15  witness: '
                                     'Phi=e^{1,2} -> component e_{3,4,5,6} = 1/9\n'
                                     'result: not-simple\n'),
 ('third-sparse-6-3', 'dual'): (1,
                                'dual               false  equations=15  witness: '
                                'Psi=e^{1,2,3,4} -> component e_{5,6} = 1/9\n'
                                'result: not-simple\n'),
 ('third-sparse-6-3', 'dual-improved'): (1,
                                         'dual-improved      false  equations=6  witness: '
                                         'Psi=e^{1,2,3,4,5} -> component e_{6} = 1/9\n'
                                         'result: not-simple\n'),
 ('third-sparse-6-3', 'improved'): (1,
                                    'improved           false  equations=6  witness: '
                                    'Psi=e^{1} -> component e_{2,3,4,5,6} = 1/9\n'
                                    'result: not-simple\n')}

OPTIMAL_STDOUT = {
    "dense-7-4": (1, "optimal            false  equations=1  witness: pairs=({1,1},{2,2}), "
                     "skew over e_{3,4,5,6}: coefficient = 28/3\nresult: not-simple\n"),
    "sparse-7-4": (1, "optimal            false  equations=18  witness: pairs=({1,1},{2,5}), "
                      "skew over e_{3,4,6,7}: coefficient = 1/6\nresult: not-simple\n"),
    "third-6-3": (1, "optimal            false  equations=1  witness: pairs=({1,1}), "
                     "skew over e_{2,3,4,5}: coefficient = 4/9\nresult: not-simple\n"),
    "simple-6-3": (0, "optimal            true   equations=35\nresult: simple\n"),
    "dense-8-4": (1, "optimal            false  equations=1  witness: pairs=({1,1},{2,2}), "
                     "skew over e_{3,4,5,6}: coefficient = -10\nresult: not-simple\n"),
    "sparse-8-4": (1, "optimal            false  equations=336  witness: pairs=({1,5},{2,6}), "
                      "skew over e_{3,4,7,8}: coefficient = 1/12\nresult: not-simple\n"),
    "simple-7-4": (0, "optimal            true   equations=140\nresult: simple\n"),
    "two-sevenths-simple-8-4": (0, "optimal            true   equations=720\nresult: simple\n"),
    "five-thirds-sparse-8-4": (
        1, "optimal            false  equations=49  witness: pairs=({1,1},{2,5}), "
           "skew over e_{3,4,6,7}: coefficient = 25/54\nresult: not-simple\n"
    ),
}

JSON_STDOUT = '{\n  "file": "FILE",\n  "dim": 7,\n  "grade": 4,\n  "criteria": [\n    {\n      "criterion": "dual-improved",\n      "verdict": false,\n      "equations_checked": 6,\n      "witness": "Psi=e^{1,2,3,4,5,6} -> component e_{1,7} = 1",\n      "probabilistic": false,\n      "seed": null\n    }\n  ],\n  "simple": false,\n  "agreement": true\n}\n'

COUNT_STDOUT = {(1, 0): 'n=1 s=0: classical=0 dual=0 improved=0 dual-improved=0 optimal=0\n',
 (1, 1): 'n=1 s=1: classical=0 dual=0 improved=0 dual-improved=0 optimal=0\n',
 (4, 2): 'n=4 s=2: classical=16 dual=16 improved=1 dual-improved=1 optimal=1\n',
 (5, 3): 'n=5 s=3: classical=50 dual=50 improved=5 dual-improved=5 optimal=5\n',
 (6, 3): 'n=6 s=3: classical=225 dual=225 improved=36 dual-improved=36 optimal=35\n',
 (7, 7): 'n=7 s=7: classical=0 dual=0 improved=0 dual-improved=0 optimal=0\n',
 (8, 4): 'n=8 s=4: classical=3136 dual=3136 improved=784 dual-improved=784 optimal=720\n',
 (10, 3): 'n=10 s=3: classical=9450 dual=9450 improved=2520 dual-improved=2520 '
          'optimal=2310\n',
 (64, 32): 'n=64 s=32: classical=3158049138450635045731210869808336896 '
           'dual=3158049138450635045731210869808336896 '
           'improved=2625333237068391244764440870143435776 '
           'dual-improved=2625333237068391244764440870143435776 '
           'optimal=696516981263042575141586353303360512\n'}

COUNT_JSON = '{\n  "dim": 9,\n  "grade": 4,\n  "counts": {\n    "classical": 10584,\n    "dual": 10584,\n    "improved": 3024,\n    "dual-improved": 3024,\n    "optimal": 2700\n  }\n}\n'

RANDOMIZED_STDOUT = {('dense-6-3', 3): (1,
                    'contraction(k=3)   false  equations=1  witness: Psi=e^{1} -> component '
                    'e_{1,2,3,4,5} = 24\n'
                    'result: not-simple\n'),
 ('dense-7-4', 2): (1,
                    'contraction(k=2)   false  equations=1  witness: trial 0, alphas=[(1, 2, -3, '
                    '1, -3, -2, 0), (-4, 3, 0, 4, -3, -4, 1)]: Psi=e^{} -> component e_{1,2,3,4} = '
                    '-3666\n'
                    'result: not-simple\n'),
 ('simple-6-3', 2): (0,
                     'contraction(k=2)   true   equations=90  [probabilistic, seed=11]\n'
                     'result: simple\n'),
 ('simple-6-3', 3): (0, 'contraction(k=3)   true   equations=36\nresult: simple\n'),
 ('sparse-6-3', 3): (1,
                     'contraction(k=3)   false  equations=6  witness: Psi=e^{1} -> component '
                     'e_{2,3,4,5,6} = 1\n'
                     'result: not-simple\n'),
 ('sparse-7-4', 2): (1,
                     'contraction(k=2)   false  equations=2  witness: trial 0, alphas=[(1, 2, -3, '
                     '1, -3, -2, 0), (-4, 3, 0, 4, -3, -4, 1)]: Psi=e^{} -> component e_{1,2,3,5} '
                     '= -32\n'
                     'result: not-simple\n'),
 ('sparse-7-4', 4): (1,
                     'contraction(k=4)   false  equations=6  witness: Psi=e^{1,2} -> component '
                     'e_{1,3,4,5,6,7} = 1\n'
                     'result: not-simple\n')}

EXACT_STDOUT = {('dense-6-3', 2): (1,
                    'contraction(k=2)   false  equations=11  witness: point 0, alphas=[(1, 0, 0, '
                    '0, 0, 0)]: Psi=e^{} -> component e_{2,3,4,5} = 24\n'
                    'result: not-simple\n'),
 ('dense-6-3', 3): (1,
                    'contraction(k=3)   false  equations=1  witness: Psi=e^{1} -> component '
                    'e_{1,2,3,4,5} = 24\n'
                    'result: not-simple\n'),
 ('dense-7-4', 2): (1,
                    'contraction(k=2)   false  equations=31  witness: point 0, alphas=[(1, 0, 0, '
                    '0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0)]: Psi=e^{} -> component e_{3,4,5,6} = 56\n'
                    'result: not-simple\n'),
 ('dense-7-4', 3): (1,
                    'contraction(k=3)   false  equations=37  witness: point 0, alphas=[(1, 0, 0, '
                    '0, 0, 0, 0)]: Psi=e^{2} -> component e_{2,3,4,5,6} = 56\n'
                    'result: not-simple\n'),
 ('grade-0', 2): (0, 'contraction(k=2)   true   equations=0\nresult: simple\n'),
 ('grade-0', 3): (0, 'contraction(k=3)   true   equations=0\nresult: simple\n'),
 ('grade-1', 2): (0, 'contraction(k=2)   true   equations=0\nresult: simple\n'),
 ('grade-1', 3): (0, 'contraction(k=3)   true   equations=0\nresult: simple\n'),
 ('grade-4', 2): (0, 'contraction(k=2)   true   equations=250\nresult: simple\n'),
 ('grade-4', 3): (0, 'contraction(k=3)   true   equations=75\nresult: simple\n'),
 ('grade-5', 2): (0, 'contraction(k=2)   true   equations=250\nresult: simple\n'),
 ('grade-5', 3): (0, 'contraction(k=3)   true   equations=250\nresult: simple\n'),
 ('simple-6-3', 2): (0, 'contraction(k=2)   true   equations=315\nresult: simple\n'),
 ('simple-6-3', 3): (0, 'contraction(k=3)   true   equations=36\nresult: simple\n'),
 ('sparse-6-3', 2): (1,
                     'contraction(k=2)   false  equations=58  witness: point 3, alphas=[(1, 0, 0, '
                     '1, 0, 0)]: Psi=e^{} -> component e_{2,3,5,6} = 2\n'
                     'result: not-simple\n'),
 ('sparse-6-3', 3): (1,
                     'contraction(k=3)   false  equations=6  witness: Psi=e^{1} -> component '
                     'e_{2,3,4,5,6} = 1\n'
                     'result: not-simple\n'),
 ('sparse-7-4', 2): (1,
                     'contraction(k=2)   false  equations=138  witness: point 3, alphas=[(1, 0, 0, '
                     '0, 0, 0, 0), (0, 1, 0, 0, 1, 0, 0)]: Psi=e^{} -> component e_{3,4,6,7} = 2\n'
                     'result: not-simple\n'),
 ('sparse-7-4', 3): (1,
                     'contraction(k=3)   false  equations=42  witness: point 0, alphas=[(1, 0, 0, '
                     '0, 0, 0, 0)]: Psi=e^{2} -> component e_{3,4,5,6,7} = 1\n'
                     'result: not-simple\n'),
 ('third-6-3', 2): (1,
                    'contraction(k=2)   false  equations=11  witness: point 0, alphas=[(1, 0, 0, '
                    '0, 0, 0)]: Psi=e^{} -> component e_{2,3,4,5} = 8/3\n'
                    'result: not-simple\n'),
 ('third-6-3', 3): (1,
                    'contraction(k=3)   false  equations=1  witness: Psi=e^{1} -> component '
                    'e_{1,2,3,4,5} = 8/3\n'
                    'result: not-simple\n'),
 ('third-sparse-6-3', 2): (1,
                           'contraction(k=2)   false  equations=58  witness: point 3, alphas=[(1, '
                           '0, 0, 1, 0, 0)]: Psi=e^{} -> component e_{2,3,5,6} = 2/9\n'
                           'result: not-simple\n'),
 ('third-sparse-6-3', 3): (1,
                           'contraction(k=3)   false  equations=6  witness: Psi=e^{1} -> component '
                           'e_{2,3,4,5,6} = 1/9\n'
                           'result: not-simple\n')}

CHECK_STDOUT = {'dense-6-3': (1,
               'classical          false  equations=7  witness: Phi=e^{1,2} -> component '
               'e_{1,3,4,5} = -12\n'
               'dual               false  equations=4  witness: Psi=e^{1,2,3,4} -> component '
               'e_{1,5} = -12\n'
               'improved           false  equations=1  witness: Psi=e^{1} -> component '
               'e_{1,2,3,4,5} = 24\n'
               'dual-improved      false  equations=1  witness: Psi=e^{1,2,3,4,5} -> component '
               'e_{1} = 24\n'
               'contraction(k=2)   false  equations=11  witness: point 0, alphas=[(1, 0, 0, 0, 0, '
               '0)]: Psi=e^{} -> component e_{2,3,4,5} = 24\n'
               'optimal            false  equations=1  witness: pairs=({1,1}), skew over '
               'e_{2,3,4,5}: coefficient = 4\n'
               'oracle             false  equations=15  witness: support rank 6 != grade 3\n'
               'result: not-simple\n'),
 'dense-7-4': (1,
               'classical          false  equations=7  witness: Phi=e^{1,2,3} -> component '
               'e_{1,2,4,5,6} = 28\n'
               'dual               false  equations=4  witness: Psi=e^{1,2,3,4,5} -> component '
               'e_{1,2,6} = 28\n'
               'improved           false  equations=1  witness: Psi=e^{1,2} -> component '
               'e_{1,2,3,4,5,6} = 56\n'
               'dual-improved      false  equations=1  witness: Psi=e^{1,2,3,4,5,6} -> component '
               'e_{1,2} = 56\n'
               'contraction(k=2)   false  equations=31  witness: point 0, alphas=[(1, 0, 0, 0, 0, '
               '0, 0), (0, 1, 0, 0, 0, 0, 0)]: Psi=e^{} -> component e_{3,4,5,6} = 56\n'
               'optimal            false  equations=1  witness: pairs=({1,1},{2,2}), skew over '
               'e_{3,4,5,6}: coefficient = 28/3\n'
               'oracle             false  equations=35  witness: support rank 7 != grade 4\n'
               'result: not-simple\n'),
 'grade-0': (0,
             'classical          true   equations=0\n'
             'dual               true   equations=0\n'
             'improved           true   equations=0\n'
             'dual-improved      true   equations=0\n'
             'contraction(k=2)   true   equations=0\n'
             'optimal            true   equations=0\n'
             'oracle             true   equations=0\n'
             'result: simple\n'),
 'grade-1': (0,
             'classical          true   equations=10\n'
             'dual               true   equations=10\n'
             'improved           true   equations=0\n'
             'dual-improved      true   equations=0\n'
             'contraction(k=2)   true   equations=0\n'
             'optimal            true   equations=0\n'
             'oracle             true   equations=1\n'
             'result: simple\n'),
 'grade-4': (0,
             'classical          true   equations=10\n'
             'dual               true   equations=10\n'
             'improved           true   equations=0\n'
             'dual-improved      true   equations=0\n'
             'contraction(k=2)   true   equations=250\n'
             'optimal            true   equations=0\n'
             'oracle             true   equations=10\n'
             'result: simple\n'),
 'grade-5': (0,
             'classical          true   equations=0\n'
             'dual               true   equations=0\n'
             'improved           true   equations=0\n'
             'dual-improved      true   equations=0\n'
             'contraction(k=2)   true   equations=250\n'
             'optimal            true   equations=0\n'
             'oracle             true   equations=5\n'
             'result: simple\n'),
 'simple-6-3': (0,
                'classical          true   equations=225\n'
                'dual               true   equations=225\n'
                'improved           true   equations=36\n'
                'dual-improved      true   equations=36\n'
                'contraction(k=2)   true   equations=315\n'
                'optimal            true   equations=35\n'
                'oracle             true   equations=15\n'
                'result: simple\n'),
 'sparse-6-3': (1,
                'classical          false  equations=15  witness: Phi=e^{1,2} -> component '
                'e_{3,4,5,6} = 1\n'
                'dual               false  equations=15  witness: Psi=e^{1,2,3,4} -> component '
                'e_{5,6} = 1\n'
                'improved           false  equations=6  witness: Psi=e^{1} -> component '
                'e_{2,3,4,5,6} = 1\n'
                'dual-improved      false  equations=6  witness: Psi=e^{1,2,3,4,5} -> component '
                'e_{6} = 1\n'
                'contraction(k=2)   false  equations=58  witness: point 3, alphas=[(1, 0, 0, 1, 0, '
                '0)]: Psi=e^{} -> component e_{2,3,5,6} = 2\n'
                'optimal            false  equations=18  witness: pairs=({1,4}), skew over '
                'e_{2,3,5,6}: coefficient = 1/6\n'
                'oracle             false  equations=15  witness: support rank 6 != grade 3\n'
                'result: not-simple\n'),
 'sparse-7-4': (1,
                'classical          false  equations=15  witness: Phi=e^{1,2,3} -> component '
                'e_{1,4,5,6,7} = -1\n'
                'dual               false  equations=15  witness: Psi=e^{1,2,3,4,5} -> component '
                'e_{1,6,7} = -1\n'
                'improved           false  equations=6  witness: Psi=e^{1,2} -> component '
                'e_{1,3,4,5,6,7} = 1\n'
                'dual-improved      false  equations=6  witness: Psi=e^{1,2,3,4,5,6} -> component '
                'e_{1,7} = 1\n'
                'contraction(k=2)   false  equations=138  witness: point 3, alphas=[(1, 0, 0, 0, '
                '0, 0, 0), (0, 1, 0, 0, 1, 0, 0)]: Psi=e^{} -> component e_{3,4,6,7} = 2\n'
                'optimal            false  equations=18  witness: pairs=({1,1},{2,5}), skew over '
                'e_{3,4,6,7}: coefficient = 1/6\n'
                'oracle             false  equations=35  witness: support rank 7 != grade 4\n'
                'result: not-simple\n'),
 'third-6-3': (1,
               'classical          false  equations=7  witness: Phi=e^{1,2} -> component '
               'e_{1,3,4,5} = -4/3\n'
               'dual               false  equations=4  witness: Psi=e^{1,2,3,4} -> component '
               'e_{1,5} = -4/3\n'
               'improved           false  equations=1  witness: Psi=e^{1} -> component '
               'e_{1,2,3,4,5} = 8/3\n'
               'dual-improved      false  equations=1  witness: Psi=e^{1,2,3,4,5} -> component '
               'e_{1} = 8/3\n'
               'contraction(k=2)   false  equations=11  witness: point 0, alphas=[(1, 0, 0, 0, 0, '
               '0)]: Psi=e^{} -> component e_{2,3,4,5} = 8/3\n'
               'optimal            false  equations=1  witness: pairs=({1,1}), skew over '
               'e_{2,3,4,5}: coefficient = 4/9\n'
               'oracle             false  equations=15  witness: support rank 6 != grade 3\n'
               'result: not-simple\n'),
 'third-sparse-6-3': (1,
                      'classical          false  equations=15  witness: Phi=e^{1,2} -> component '
                      'e_{3,4,5,6} = 1/9\n'
                      'dual               false  equations=15  witness: Psi=e^{1,2,3,4} -> '
                      'component e_{5,6} = 1/9\n'
                      'improved           false  equations=6  witness: Psi=e^{1} -> component '
                      'e_{2,3,4,5,6} = 1/9\n'
                      'dual-improved      false  equations=6  witness: Psi=e^{1,2,3,4,5} -> '
                      'component e_{6} = 1/9\n'
                      'contraction(k=2)   false  equations=58  witness: point 3, alphas=[(1, 0, 0, '
                      '1, 0, 0)]: Psi=e^{} -> component e_{2,3,5,6} = 2/9\n'
                      'optimal            false  equations=18  witness: pairs=({1,4}), skew over '
                      'e_{2,3,5,6}: coefficient = 1/54\n'
                      'oracle             false  equations=15  witness: support rank 6 != grade 3\n'
                      'result: not-simple\n')}

ORACLE_STDOUT = {'dense-6-3': (1,
               'oracle             false  equations=15  witness: support rank 6 != grade 3\n'
               'result: not-simple\n'),
 'dense-7-4': (1,
               'oracle             false  equations=35  witness: support rank 7 != grade 4\n'
               'result: not-simple\n'),
 'grade-0': (0, 'oracle             true   equations=0\nresult: simple\n'),
 'grade-1': (0, 'oracle             true   equations=1\nresult: simple\n'),
 'grade-4': (0, 'oracle             true   equations=10\nresult: simple\n'),
 'grade-5': (0, 'oracle             true   equations=5\nresult: simple\n'),
 'simple-6-3': (0, 'oracle             true   equations=15\nresult: simple\n'),
 'sparse-6-3': (1,
                'oracle             false  equations=15  witness: support rank 6 != grade 3\n'
                'result: not-simple\n'),
 'sparse-7-4': (1,
                'oracle             false  equations=35  witness: support rank 7 != grade 4\n'
                'result: not-simple\n'),
 'third-6-3': (1,
               'oracle             false  equations=15  witness: support rank 6 != grade 3\n'
               'result: not-simple\n'),
 'third-sparse-6-3': (1,
                      'oracle             false  equations=15  witness: support rank 6 != grade 3\n'
                      'result: not-simple\n')}
