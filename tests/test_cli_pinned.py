"""Exact CLI output, byte for byte, for a fixed set of invocations.

The expected texts were recorded from the implementation that evaluated each
Pauli expectation as a separate trace, and the lhv texts from the estimator
that built the full array of +-1 products; any change to the tensor
arithmetic, the bisection, the sampling or the serializers that alters a
printed digit fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bellri.cli import main

DATA = Path(__file__).parent / "data"

TENSOR_WERNER_08_JSON = """\
{
  "t": [
    [
      -0.8,
      0.0,
      0.0
    ],
    [
      0.0,
      -0.8,
      0.0
    ],
    [
      0.0,
      0.0,
      -0.8
    ]
  ]
}
"""

TENSOR_WERNER_08_CSV = """\
T11,T12,T13,T21,T22,T23,T31,T32,T33
-0.8,0.0,0.0,0.0,-0.8,0.0,0.0,0.0,-0.8
"""

CRITERION_WERNER_075_CSV = """\
lhs,rhs,margin,violated,threshold_criterion,threshold_prior_two_setting
1.6875,1.6875,0.0,false,0.75,0.8105694691387023
"""

THRESHOLD_TEMPLATE = """\
{
  "comparison_thresholds": [
    0.75,
    0.8105694691387023
  ],
  "critical_visibility": %s,
  "status": "ok"
}
"""

CHSH_WERNER_1_PLANE_12 = """\
{
  "bound": 2.0,
  "max_value": 2.0,
  "plane": [
    1,
    2
  ],
  "satisfied": true,
  "values": [
    2.0,
    2.0,
    0.0,
    0.0
  ]
}
"""

LHV_075_11 = """\
{
  "i": 1,
  "j": 1,
  "mean": -0.747,
  "n": 100000,
  "pass": true,
  "std_error": 0.0021023687116065045,
  "target": -0.75,
  "v": 0.75
}
"""

LHV_06_23_CSV = """\
v,i,j,n,mean,std_error,target,pass
0.6,2,3,100000,-0.00066,0.003162292782927674,0.0,true
"""

CRITERION_WERNER_08_JSON = """\
{
  "comparison_thresholds": [
    0.75,
    0.8105694691387023
  ],
  "lhs": 1.9200000000000004,
  "margin": 0.12000000000000033,
  "rhs": 1.8,
  "violated": true
}
"""

CHSH_WERNER_09_PLANE_13_CSV = """\
plane,value_1,value_2,value_3,value_4,bound,max_value,satisfied
13,1.7999999999999998,1.7999999999999998,1.1102230246251565e-16,1.1102230246251565e-16,2.0,1.7999999999999998,true
"""

THRESHOLD_KET00_WHITE_CSV = """\
critical_visibility,status,threshold_criterion,threshold_prior_two_setting
,no-violation,0.75,0.8105694691387023
"""

SWEEP_10001_JSON_SHA256 = "1ab96846cffa3fd0d5e0c6a38e6707cfeb6bdf3f2580980e88b381a6b40ac4a3"


@pytest.fixture
def ket00_file(tmp_path):
    entries = [[0.0, 0.0] for _ in range(16)]
    entries[0] = [1.0, 0.0]
    path = tmp_path / "n00.json"
    path.write_text(json.dumps({"rows": 4, "cols": 4, "entries": entries}))
    return path


def stdout_of(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    return captured.out


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["tensor", "--state", "werner:0.8"], TENSOR_WERNER_08_JSON),
        (["tensor", "--state", "werner:0.8", "--format", "json"], TENSOR_WERNER_08_JSON),
        (["tensor", "--state", "werner:0.8", "--format", "csv"], TENSOR_WERNER_08_CSV),
        (["criterion", "--state", "werner:0.75", "--format", "csv"], CRITERION_WERNER_075_CSV),
        (
            ["threshold", "--pure", "singlet", "--noise", "white", "--tol", "1e-9"],
            THRESHOLD_TEMPLATE % "0.7500000004656613",
        ),
        (["chsh", "--state", "werner:1", "--plane", "12"], CHSH_WERNER_1_PLANE_12),
        (["lhv", "--v", "0.75", "--i", "1", "--j", "1", "--n", "100000", "--seed", "7"], LHV_075_11),
        (
            ["lhv", "--v", "0.6", "--i", "2", "--j", "3", "--n", "100000", "--seed", "11",
             "--format", "csv"],
            LHV_06_23_CSV,
        ),
    ],
)
def test_pinned_stdout(capsys, argv, expected):
    assert stdout_of(capsys, *argv) == expected


def test_pinned_threshold_against_ket00_noise(capsys, ket00_file):
    out = stdout_of(
        capsys, "threshold", "--pure", "singlet", "--noise", f"file:{ket00_file}", "--tol", "1e-9"
    )
    assert out == THRESHOLD_TEMPLATE % "0.8442536392249167"


def test_pinned_sweep_csv(capsys):
    out = stdout_of(capsys, "sweep", "--steps", "101", "--format", "csv")
    assert out == (DATA / "sweep_steps101.csv").read_text()


def test_pinned_sweep_json_digest(capsys):
    out = stdout_of(capsys, "sweep", "--steps", "10001")
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_10001_JSON_SHA256


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["criterion", "--state", "werner:0.8"], CRITERION_WERNER_08_JSON),
        (
            ["chsh", "--state", "werner:0.9", "--plane", "13", "--format", "csv"],
            CHSH_WERNER_09_PLANE_13_CSV,
        ),
    ],
)
def test_pinned_stdout_more_forms(capsys, argv, expected):
    assert stdout_of(capsys, *argv) == expected


def test_pinned_threshold_csv_without_violation(capsys, ket00_file):
    # a product state mixed with white noise never violates: exit 1, empty first cell
    code = main(["threshold", "--pure", f"file:{ket00_file}", "--noise", "white", "--format", "csv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, THRESHOLD_KET00_WHITE_CSV, "")
