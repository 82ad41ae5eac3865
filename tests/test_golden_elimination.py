"""Golden outputs of the paths that run through exact elimination.

The expectations below were captured from the Fraction Gauss-Jordan ``rref``
that the integer elimination replaced; RREF is unique, so they must not change
by a byte.  ``plk factor`` prints ``json.dumps(..., indent=2)``: its expected
stdout is kept here as the parsed list and re-indented the same way, which
round-trips exactly for the int and str values it holds.
"""

import json
from fractions import Fraction

import pytest

from plk import Multivector, from_factors, support_space
from plk.cli import main
from plk.randgen import random_simple, random_vector
from plk.serialize import dump, emit_multivector

from util import seeded

CASES = [
    (n, s, scale)
    for n, s in ((6, 3), (9, 4), (12, 3))
    for scale in ("int", "third")
]
FAMILY_KINDS = ("common", "hyperplane")


def golden_input(n, s, scale):
    P = random_simple(seeded(3, n, s), n, s, 5)
    return P if scale == "int" else P * Fraction(1, 3)


def family_members(kind, n=7, k=3):
    """Four decomposable k-vectors: ``common`` share a (k-1)-blade, so the
    intersection bound holds; ``hyperplane`` lie in one (k+1)-space."""
    rng = seeded(4, n, k)
    vs = [random_vector(rng, n, 4) for _ in range(k + 3)]
    if kind == "common":
        return [from_factors(vs[: k - 1] + [v]) for v in vs[k - 1 :]]
    basis = vs[: k + 1]
    members = []
    while len(members) < 4:
        picks = [
            sum((rng.randint(-3, 3) * b for b in basis), Multivector.zero(n, 1))
            for _ in range(k)
        ]
        p = from_factors(picks)
        if not p.is_zero():
            members.append(p)
    return members


def write_family(kind, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([emit_multivector(m) for m in family_members(kind)], fh)


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("case", CASES, ids=lambda c: "{}-{}-{}".format(*c))
def test_factor_stdout_is_golden(case, tmp_path, capsys):
    path = str(tmp_path / "p.json")
    dump(golden_input(*case), path)
    code, out = run_cli(capsys, "factor", path)
    assert code == 0
    assert out == json.dumps(FACTOR_STDOUT[case], indent=2) + "\n"


@pytest.mark.parametrize("case", CASES, ids=lambda c: "{}-{}-{}".format(*c))
def test_support_basis_is_golden(case):
    basis = support_space(golden_input(*case)).basis
    assert [str(b) for b in basis] == SUPPORT_BASIS[case]


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_family_json_is_golden(kind, tmp_path, capsys):
    path = str(tmp_path / "fam.json")
    write_family(kind, path)
    code, out = run_cli(capsys, "family", "--json", path)
    assert code == 0
    assert out == FAMILY_STDOUT[kind]


# -- expectations ---------------------------------------------------------------

FACTOR_STDOUT = {(6, 3, 'int'): [{'dim': 6,
                  'grade': 1,
                  'dual': False,
                  'terms': [{'indices': [1], 'coeff': 12},
                            {'indices': [4], 'coeff': -16},
                            {'indices': [5], 'coeff': 4},
                            {'indices': [6], 'coeff': -12}]},
                 {'dim': 6,
                  'grade': 1,
                  'dual': False,
                  'terms': [{'indices': [2], 'coeff': 1},
                            {'indices': [4], 'coeff': '11/6'},
                            {'indices': [5], 'coeff': '19/6'},
                            {'indices': [6], 'coeff': '15/4'}]},
                 {'dim': 6,
                  'grade': 1,
                  'dual': False,
                  'terms': [{'indices': [3], 'coeff': 1},
                            {'indices': [4], 'coeff': '1/2'},
                            {'indices': [5], 'coeff': '11/2'},
                            {'indices': [6], 'coeff': '21/4'}]}],
 (6, 3, 'third'): [{'dim': 6,
                    'grade': 1,
                    'dual': False,
                    'terms': [{'indices': [1], 'coeff': 4},
                              {'indices': [4], 'coeff': '-16/3'},
                              {'indices': [5], 'coeff': '4/3'},
                              {'indices': [6], 'coeff': -4}]},
                   {'dim': 6,
                    'grade': 1,
                    'dual': False,
                    'terms': [{'indices': [2], 'coeff': 1},
                              {'indices': [4], 'coeff': '11/6'},
                              {'indices': [5], 'coeff': '19/6'},
                              {'indices': [6], 'coeff': '15/4'}]},
                   {'dim': 6,
                    'grade': 1,
                    'dual': False,
                    'terms': [{'indices': [3], 'coeff': 1},
                              {'indices': [4], 'coeff': '1/2'},
                              {'indices': [5], 'coeff': '11/2'},
                              {'indices': [6], 'coeff': '21/4'}]}],
 (9, 4, 'int'): [{'dim': 9,
                  'grade': 1,
                  'dual': False,
                  'terms': [{'indices': [1], 'coeff': 344},
                            {'indices': [5], 'coeff': 64},
                            {'indices': [6], 'coeff': 124},
                            {'indices': [7], 'coeff': -52},
                            {'indices': [8], 'coeff': -584},
                            {'indices': [9], 'coeff': 212}]},
                 {'dim': 9,
                  'grade': 1,
                  'dual': False,
                  'terms': [{'indices': [2], 'coeff': 1},
                            {'indices': [5], 'coeff': '-32/43'},
                            {'indices': [6], 'coeff': '-291/172'},
                            {'indices': [7], 'coeff': '-25/172'},
                            {'indices': [8], 'coeff': '111/86'},
                            {'indices': [9], 'coeff': '-123/172'}]},
                 {'dim': 9,
                  'grade': 1,
                  'dual': False,
                  'terms': [{'indices': [3], 'coeff': 1},
                            {'indices': [5], 'coeff': '63/86'},
                            {'indices': [6], 'coeff': '-15/86'},
                            {'indices': [7], 'coeff': '59/86'},
                            {'indices': [8], 'coeff': '11/86'},
                            {'indices': [9], 'coeff': '-9/86'}]},
                 {'dim': 9,
                  'grade': 1,
                  'dual': False,
                  'terms': [{'indices': [4], 'coeff': 1},
                            {'indices': [5], 'coeff': '59/86'},
                            {'indices': [6], 'coeff': '31/86'},
                            {'indices': [7], 'coeff': '73/86'},
                            {'indices': [8], 'coeff': '69/86'},
                            {'indices': [9], 'coeff': '53/86'}]}],
 (9, 4, 'third'): [{'dim': 9,
                    'grade': 1,
                    'dual': False,
                    'terms': [{'indices': [1], 'coeff': '344/3'},
                              {'indices': [5], 'coeff': '64/3'},
                              {'indices': [6], 'coeff': '124/3'},
                              {'indices': [7], 'coeff': '-52/3'},
                              {'indices': [8], 'coeff': '-584/3'},
                              {'indices': [9], 'coeff': '212/3'}]},
                   {'dim': 9,
                    'grade': 1,
                    'dual': False,
                    'terms': [{'indices': [2], 'coeff': 1},
                              {'indices': [5], 'coeff': '-32/43'},
                              {'indices': [6], 'coeff': '-291/172'},
                              {'indices': [7], 'coeff': '-25/172'},
                              {'indices': [8], 'coeff': '111/86'},
                              {'indices': [9], 'coeff': '-123/172'}]},
                   {'dim': 9,
                    'grade': 1,
                    'dual': False,
                    'terms': [{'indices': [3], 'coeff': 1},
                              {'indices': [5], 'coeff': '63/86'},
                              {'indices': [6], 'coeff': '-15/86'},
                              {'indices': [7], 'coeff': '59/86'},
                              {'indices': [8], 'coeff': '11/86'},
                              {'indices': [9], 'coeff': '-9/86'}]},
                   {'dim': 9,
                    'grade': 1,
                    'dual': False,
                    'terms': [{'indices': [4], 'coeff': 1},
                              {'indices': [5], 'coeff': '59/86'},
                              {'indices': [6], 'coeff': '31/86'},
                              {'indices': [7], 'coeff': '73/86'},
                              {'indices': [8], 'coeff': '69/86'},
                              {'indices': [9], 'coeff': '53/86'}]}],
 (12, 3, 'int'): [{'dim': 12,
                   'grade': 1,
                   'dual': False,
                   'terms': [{'indices': [1], 'coeff': -58},
                             {'indices': [4], 'coeff': -14},
                             {'indices': [5], 'coeff': 24},
                             {'indices': [6], 'coeff': -74},
                             {'indices': [7], 'coeff': 72},
                             {'indices': [8], 'coeff': -38},
                             {'indices': [9], 'coeff': -24},
                             {'indices': [10], 'coeff': -102},
                             {'indices': [11], 'coeff': -22},
                             {'indices': [12], 'coeff': -60}]},
                  {'dim': 12,
                   'grade': 1,
                   'dual': False,
                   'terms': [{'indices': [2], 'coeff': 1},
                             {'indices': [4], 'coeff': '27/58'},
                             {'indices': [5], 'coeff': '49/58'},
                             {'indices': [6], 'coeff': '32/29'},
                             {'indices': [7], 'coeff': '-28/29'},
                             {'indices': [8], 'coeff': '123/58'},
                             {'indices': [9], 'coeff': '67/58'},
                             {'indices': [10], 'coeff': '89/58'},
                             {'indices': [11], 'coeff': '59/58'},
                             {'indices': [12], 'coeff': '33/29'}]},
                  {'dim': 12,
                   'grade': 1,
                   'dual': False,
                   'terms': [{'indices': [3], 'coeff': 1},
                             {'indices': [4], 'coeff': '33/58'},
                             {'indices': [5], 'coeff': '-11/58'},
                             {'indices': [6], 'coeff': '-6/29'},
                             {'indices': [7], 'coeff': '-2/29'},
                             {'indices': [8], 'coeff': '-101/58'},
                             {'indices': [9], 'coeff': '11/58'},
                             {'indices': [10], 'coeff': '-91/58'},
                             {'indices': [11], 'coeff': '27/58'},
                             {'indices': [12], 'coeff': '-37/29'}]}],
 (12, 3, 'third'): [{'dim': 12,
                     'grade': 1,
                     'dual': False,
                     'terms': [{'indices': [1], 'coeff': '-58/3'},
                               {'indices': [4], 'coeff': '-14/3'},
                               {'indices': [5], 'coeff': 8},
                               {'indices': [6], 'coeff': '-74/3'},
                               {'indices': [7], 'coeff': 24},
                               {'indices': [8], 'coeff': '-38/3'},
                               {'indices': [9], 'coeff': -8},
                               {'indices': [10], 'coeff': -34},
                               {'indices': [11], 'coeff': '-22/3'},
                               {'indices': [12], 'coeff': -20}]},
                    {'dim': 12,
                     'grade': 1,
                     'dual': False,
                     'terms': [{'indices': [2], 'coeff': 1},
                               {'indices': [4], 'coeff': '27/58'},
                               {'indices': [5], 'coeff': '49/58'},
                               {'indices': [6], 'coeff': '32/29'},
                               {'indices': [7], 'coeff': '-28/29'},
                               {'indices': [8], 'coeff': '123/58'},
                               {'indices': [9], 'coeff': '67/58'},
                               {'indices': [10], 'coeff': '89/58'},
                               {'indices': [11], 'coeff': '59/58'},
                               {'indices': [12], 'coeff': '33/29'}]},
                    {'dim': 12,
                     'grade': 1,
                     'dual': False,
                     'terms': [{'indices': [3], 'coeff': 1},
                               {'indices': [4], 'coeff': '33/58'},
                               {'indices': [5], 'coeff': '-11/58'},
                               {'indices': [6], 'coeff': '-6/29'},
                               {'indices': [7], 'coeff': '-2/29'},
                               {'indices': [8], 'coeff': '-101/58'},
                               {'indices': [9], 'coeff': '11/58'},
                               {'indices': [10], 'coeff': '-91/58'},
                               {'indices': [11], 'coeff': '27/58'},
                               {'indices': [12], 'coeff': '-37/29'}]}]}

SUPPORT_BASIS = {(6, 3, 'int'): ['e_{1} - 4/3*e_{4} + 1/3*e_{5} - e_{6}',
                 'e_{2} + 11/6*e_{4} + 19/6*e_{5} + 15/4*e_{6}',
                 'e_{3} + 1/2*e_{4} + 11/2*e_{5} + 21/4*e_{6}'],
 (6, 3, 'third'): ['e_{1} - 4/3*e_{4} + 1/3*e_{5} - e_{6}',
                   'e_{2} + 11/6*e_{4} + 19/6*e_{5} + 15/4*e_{6}',
                   'e_{3} + 1/2*e_{4} + 11/2*e_{5} + 21/4*e_{6}'],
 (9, 4, 'int'): ['e_{1} + 8/43*e_{5} + 31/86*e_{6} - 13/86*e_{7} - 73/43*e_{8} + '
                 '53/86*e_{9}',
                 'e_{2} - 32/43*e_{5} - 291/172*e_{6} - 25/172*e_{7} + 111/86*e_{8} - '
                 '123/172*e_{9}',
                 'e_{3} + 63/86*e_{5} - 15/86*e_{6} + 59/86*e_{7} + 11/86*e_{8} - '
                 '9/86*e_{9}',
                 'e_{4} + 59/86*e_{5} + 31/86*e_{6} + 73/86*e_{7} + 69/86*e_{8} + '
                 '53/86*e_{9}'],
 (9, 4, 'third'): ['e_{1} + 8/43*e_{5} + 31/86*e_{6} - 13/86*e_{7} - 73/43*e_{8} + '
                   '53/86*e_{9}',
                   'e_{2} - 32/43*e_{5} - 291/172*e_{6} - 25/172*e_{7} + 111/86*e_{8} '
                   '- 123/172*e_{9}',
                   'e_{3} + 63/86*e_{5} - 15/86*e_{6} + 59/86*e_{7} + 11/86*e_{8} - '
                   '9/86*e_{9}',
                   'e_{4} + 59/86*e_{5} + 31/86*e_{6} + 73/86*e_{7} + 69/86*e_{8} + '
                   '53/86*e_{9}'],
 (12, 3, 'int'): ['e_{1} + 7/29*e_{4} - 12/29*e_{5} + 37/29*e_{6} - 36/29*e_{7} + '
                  '19/29*e_{8} + 12/29*e_{9} + 51/29*e_{10} + 11/29*e_{11} + '
                  '30/29*e_{12}',
                  'e_{2} + 27/58*e_{4} + 49/58*e_{5} + 32/29*e_{6} - 28/29*e_{7} + '
                  '123/58*e_{8} + 67/58*e_{9} + 89/58*e_{10} + 59/58*e_{11} + '
                  '33/29*e_{12}',
                  'e_{3} + 33/58*e_{4} - 11/58*e_{5} - 6/29*e_{6} - 2/29*e_{7} - '
                  '101/58*e_{8} + 11/58*e_{9} - 91/58*e_{10} + 27/58*e_{11} - '
                  '37/29*e_{12}'],
 (12, 3, 'third'): ['e_{1} + 7/29*e_{4} - 12/29*e_{5} + 37/29*e_{6} - 36/29*e_{7} + '
                    '19/29*e_{8} + 12/29*e_{9} + 51/29*e_{10} + 11/29*e_{11} + '
                    '30/29*e_{12}',
                    'e_{2} + 27/58*e_{4} + 49/58*e_{5} + 32/29*e_{6} - 28/29*e_{7} + '
                    '123/58*e_{8} + 67/58*e_{9} + 89/58*e_{10} + 59/58*e_{11} + '
                    '33/29*e_{12}',
                    'e_{3} + 33/58*e_{4} - 11/58*e_{5} - 6/29*e_{6} - 2/29*e_{7} - '
                    '101/58*e_{8} + 11/58*e_{9} - 91/58*e_{10} + 27/58*e_{11} - '
                    '37/29*e_{12}']}

FAMILY_STDOUT = {'common': '{\n  "members": 4,\n  "branch": "intersection-bound"\n}\n',
 'hyperplane': '{\n  "members": 4,\n  "branch": "span-bound"\n}\n'}
