import json
import math

import numpy as np
import pytest

from wflow.cli import main
from wflow.measures import (
    Coupling,
    DiscreteMeasure,
    coupling_to_json,
    measure_from_json,
    measure_to_json,
)


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")


def measure_file(tmp_path, name, points, mults=None):
    pts = np.asarray(points, dtype=float).reshape(len(points), -1)
    mu = (
        DiscreteMeasure.from_points(pts)
        if mults is None
        else DiscreteMeasure(pts, np.asarray(mults))
    )
    p = tmp_path / name
    write_json(p, measure_to_json(mu))
    return p, mu


def test_w2_subcommand(tmp_path, capsys):
    a, _ = measure_file(tmp_path, "a.json", [[0.0, 0.0], [1.0, 0.0]])
    b, _ = measure_file(tmp_path, "b.json", [[0.0, 1.0], [1.0, 1.0]])
    code = main(["w2", str(a), str(b), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "1.0" in out
    plan = (tmp_path / "w2_plan.csv").read_text(encoding="utf-8")
    assert plan.splitlines()[0].startswith("source_index,target_index,mass")


def test_winf_subcommand(tmp_path, capsys):
    a, _ = measure_file(tmp_path, "a.json", [[0.0], [10.0]])
    b, _ = measure_file(tmp_path, "b.json", [[1.0], [9.0]])
    assert main(["w-inf", str(a), str(b)]) == 0
    assert "1.0" in capsys.readouterr().out


def test_decompose_subcommand(tmp_path, capsys):
    mu = DiscreteMeasure.from_points(np.array([[0.0, 0.0], [1.0, 1.0]]))
    nu = DiscreteMeasure.from_points(np.array([[1.0, -1.0], [2.0, 0.0]]))
    mass = np.zeros((2, 2), dtype=int)
    for i, a in enumerate(mu.atoms):
        j = 1 if np.allclose(a, [0.0, 0.0]) else 0
        mass[i, j] = 1
    gamma = Coupling(mu, nu, mass)
    cpath = tmp_path / "coupling.json"
    write_json(cpath, coupling_to_json(gamma))
    assert main(["decompose", str(cpath), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "segments.csv").read_text(encoding="utf-8").strip().splitlines()
    assert rows[0] == "segment,t_start,t_end,speed"
    assert len(rows) == 3
    for row in rows[1:]:
        speed = float(row.split(",")[-1])
        assert abs(speed - 2.0) < 1e-6


def test_simulate_sticky_pair(tmp_path):
    # the same energy given as a functional or as its pw descent field
    energy = {
        "kind": "pw",
        "params": {
            "potential": {"kind": "zero", "coeff": 0.0},
            "interaction": {"kind": "abs", "coeff": 1.0},
        },
    }
    for key in ("functional", "field"):
        cfg = {
            "experiment": "simulate",
            key: energy,
            "measures": [measure_to_json(DiscreteMeasure.from_points(np.array([[-1.0], [1.0]])))],
            "scheme": {"kind": "implicit", "tau": 0.01},
            "params": {"T": 3.0, "merge_eps": 1e-6},
        }
        cpath = tmp_path / "cfg.json"
        out = tmp_path / key
        write_json(cpath, cfg)
        assert main(["simulate", str(cpath), "--out", str(out)]) == 0
        diag = json.loads((out / "diagnostics.json").read_text(encoding="utf-8"))
        drop = next(d["t"] for d in diag if d["support_cardinality"] == 1)
        assert abs(drop - 2.0) <= 0.01 + 1e-9
        traj = (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()
        assert traj[0] == "t,particle_index,x_1"


def test_simulate_artifacts_reproducible(tmp_path):
    cfg = {
        "experiment": "simulate",
        "field": {"kind": "barycentric", "params": {"strength": 1.0, "drift": [0.0, 0.0]}},
        "measures": [
            measure_to_json(DiscreteMeasure.from_points(np.array([[0.0, 0.0], [1.0, 2.0]])))
        ],
        "scheme": {"kind": "implicit", "tau": 0.05},
        "params": {"T": 0.5},
        "seed": 7,
    }
    cpath = tmp_path / "cfg.json"
    write_json(cpath, cfg)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["simulate", str(cpath), "--out", str(out1)]) == 0
    assert main(["simulate", str(cpath), "--out", str(out2)]) == 0
    for name in ("trajectory.csv", "diagnostics.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_jko_subcommand(tmp_path, capsys):
    cfg = {
        "experiment": "jko",
        "functional": {
            "kind": "pw",
            "params": {
                "potential": {"kind": "quadratic", "coeff": 1.0},
                "interaction": {"kind": "zero", "coeff": 0.0},
            },
        },
        "measures": [measure_to_json(DiscreteMeasure.dirac([1.0]))],
        "params": {"tau": 0.25},
    }
    cpath = tmp_path / "cfg.json"
    write_json(cpath, cfg)
    assert main(["jko", str(cpath), "--out", str(tmp_path)]) == 0
    result = measure_from_json(json.loads((tmp_path / "jko_result.json").read_text("utf-8")))
    assert abs(result.atoms[0, 0] - 1.0 / 1.25) < 1e-9
    assert "objective" in capsys.readouterr().out


def test_verify_failing_field_exits_two(tmp_path):
    cfg = {
        "experiment": "verify",
        "field": {
            "kind": "linear",
            "params": {"matrix": [[1.0, 0.0], [0.0, 1.0]], "offset": [0.0, 0.0]},
        },
        "measures": [
            measure_to_json(DiscreteMeasure.from_points(np.array([[0.0, 0.0], [1.0, 1.0]]))),
            measure_to_json(DiscreteMeasure.from_points(np.array([[2.0, 0.0], [0.0, 2.0]]))),
        ],
        "params": {"lambda": 0.0, "mode": "exhaustive"},
    }
    cpath = tmp_path / "cfg.json"
    write_json(cpath, cfg)
    assert main(["verify", str(cpath), "--out", str(tmp_path)]) == 2
    witness = json.loads((tmp_path / "witness.json").read_text("utf-8"))
    assert witness["mass"]


def test_verify_random_suite_passes(tmp_path):
    cfg = {
        "experiment": "verify",
        "field": {"kind": "barycentric", "params": {"strength": 1.0, "drift": [0.0, 0.0]}},
        "params": {"lambda": 0.0, "mode": "exhaustive", "n_pairs": 5, "max_card": 4, "dim": 2},
        "seed": 13,
    }
    cpath = tmp_path / "cfg.json"
    write_json(cpath, cfg)
    assert main(["verify", str(cpath), "--out", str(tmp_path)]) == 0


def test_contraction_subcommand(tmp_path):
    cfg = {
        "experiment": "contraction",
        "field": {"kind": "barycentric", "params": {"strength": 1.0, "drift": [0.0]}},
        "measures": [
            measure_to_json(DiscreteMeasure.from_points(np.array([[0.0], [1.0]]))),
            measure_to_json(DiscreteMeasure.from_points(np.array([[0.5], [2.0]]))),
        ],
        "scheme": {"kind": "implicit", "tau": 0.01},
        "params": {"lambda": 0.0, "t_grid": [0.5, 1.0]},
    }
    cpath = tmp_path / "cfg.json"
    write_json(cpath, cfg)
    assert main(["contraction", str(cpath), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "contraction.csv").read_text("utf-8").strip().splitlines()
    assert rows[0] == "t,ratio"
    for row in rows[1:]:
        assert float(row.split(",")[1]) <= 1.001


def test_euler_study_subcommand(tmp_path):
    cfg = {
        "experiment": "euler-study",
        "field": {"kind": "linear", "params": {"matrix": [[-1.0]], "offset": [0.0]}},
        "measures": [measure_to_json(DiscreteMeasure.dirac([1.0]))],
        "params": {"t": 1.0, "n_list": [4, 16]},
    }
    cpath = tmp_path / "cfg.json"
    write_json(cpath, cfg)
    assert main(["euler-study", str(cpath), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "euler_study.csv").read_text("utf-8").strip().splitlines()
    assert rows[0] == "n,error,bound,pass"
    n, err, bound, ok = rows[1].split(",")
    assert int(n) == 4
    assert abs(float(err) - abs(1.25**-4 - math.exp(-1))) < 1e-3
    assert ok == "true"


def test_meanfield_subcommand(tmp_path):
    cfg = {
        "experiment": "meanfield",
        "field": {"kind": "barycentric", "params": {"strength": 1.0, "drift": [0.0, 0.0]}},
        "measures": [
            measure_to_json(
                DiscreteMeasure.from_points(
                    np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
                )
            )
        ],
        "scheme": {"kind": "implicit", "tau": 0.02},
        "params": {"N_list": [4, 8], "t": 0.5, "lambda": 0.0, "n_seeds": 2, "slack": 1e-6},
        "seed": 5,
    }
    cpath = tmp_path / "cfg.json"
    write_json(cpath, cfg)
    assert main(["meanfield", str(cpath), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "meanfield.csv").read_text("utf-8").strip().splitlines()
    assert rows[0] == "seed,N,initial_error,final_error,bound,pass"
    assert len(rows) == 5


def test_evi_subcommand(tmp_path):
    cfg = {
        "experiment": "evi",
        "functional": {
            "kind": "pw",
            "params": {
                "potential": {"kind": "quadratic", "coeff": 1.0},
                "interaction": {"kind": "quadratic", "coeff": 1.0},
            },
        },
        "measures": [
            measure_to_json(DiscreteMeasure.from_points(np.array([[0.0, 0.0], [1.0, 1.0]])))
        ],
        "params": {
            "T": 0.1,
            "tau": 0.001,
            "dt_record": 0.01,
            "n_comparison": 3,
            "lambda": -1.0,
            "bound_coeff": 5.0,
        },
        "seed": 21,
    }
    cpath = tmp_path / "cfg.json"
    write_json(cpath, cfg)
    assert main(["evi", str(cpath), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "evi_residuals.csv").read_text("utf-8").strip().splitlines()
    assert rows[0] == "t,comparison_index,residual,bound"
    assert len(rows) > 1


def test_perturb_subcommand(tmp_path):
    cfg = {
        "experiment": "perturb",
        "params": {
            "A": [[0.0, 0.0], [1.0, 0.0]],
            "B": [[0.0, 0.0], [1.0, 0.0]],
            "radius": 1e-3,
        },
        "seed": 3,
    }
    cpath = tmp_path / "cfg.json"
    write_json(cpath, cfg)
    assert main(["perturb", str(cpath), "--out", str(tmp_path)]) == 0
    points = json.loads((tmp_path / "b_prime.json").read_text("utf-8"))["points"]
    assert len(points) == 2


def test_bad_config_exits_one(tmp_path, capsys):
    cpath = tmp_path / "cfg.json"
    write_json(cpath, {"experiment": "simulate", "params": {}})
    assert main(["simulate", str(cpath)]) == 1
    err = capsys.readouterr().err
    assert "field" in err or "functional" in err


def test_missing_file_exits_one(tmp_path, capsys):
    assert main(["w2", str(tmp_path / "absent.json"), str(tmp_path / "also_absent.json")]) == 1
    assert capsys.readouterr().err


def test_w2_oversized_expansion_exits_one_without_traceback(tmp_path, capsys):
    # lcm(991, 997) = 988027 particles: the pairwise differences would need TiB
    a, _ = measure_file(tmp_path, "a.json", [[0.0], [1.0]], mults=[1, 990])
    b, _ = measure_file(tmp_path, "b.json", [[0.5], [2.0]], mults=[996, 1])
    assert main(["w2", str(a), str(b), "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "988027 particles in 1 dimensions" in captured.err
    assert "above the cap" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_invalid_tau_reports_field_path(tmp_path, capsys):
    # bad and non-finite numbers are rejected at the boundary, naming the field
    implicit = {"kind": "implicit", "tau": 0.1}
    meanfield = {"N_list": [2], "t": 0.1, "lambda": 0.0, "n_seeds": 1}
    cases = [
        ("simulate", {"scheme": {"kind": "implicit", "tau": -0.5}},
         "scheme.tau: must be positive, got -0.5"),
        ("simulate", {"scheme": {"kind": "implicit", "tau": math.nan}},
         "scheme.tau: must be finite, got nan"),
        ("simulate", {"scheme": {"kind": "explicit", "tau": math.inf}},
         "scheme.tau: must be finite, got inf"),
        ("simulate", {"scheme": {"kind": "exponential", "n": math.inf}},
         "scheme.n: must be finite, got inf"),
        ("simulate", {"scheme": {"kind": "exponential", "n": math.nan}},
         "scheme.n: must be finite, got nan"),
        ("simulate", {"scheme": implicit, "params": {"T": math.inf}},
         "params.T: must be finite, got inf"),
        ("simulate", {"scheme": implicit, "params": {"T": 1.0, "merge_eps": math.nan}},
         "params.merge_eps: must be finite"),
        ("meanfield", {"scheme": implicit, "params": meanfield, "seed": math.inf},
         "seed: cannot convert float infinity"),
        ("simulate", {"scheme": implicit, "field": {"kind": "barycentric",
                      "params": {"strength": math.inf, "drift": [0.0]}}},
         "params.strength: must be finite, got inf"),
        ("simulate", {"scheme": implicit, "measures": [{"dim": 1, "denominator": 1,
                      "atoms": [{"x": [0.0], "mult": math.inf}]}]},
         "atoms[0].mult: cannot convert float infinity"),
        ("simulate", {"scheme": implicit, "field": {"kind": "pw", "params": {
                      "potential": {"kind": "quadratic", "coeff": math.nan},
                      "interaction": {"kind": "zero"}}}},
         "params.potential.coeff: must be finite, got nan"),
        ("simulate", {"scheme": implicit, "measures": [{"dim": 1, "denominator": 1,
                      "atoms": [{"x": [math.inf], "mult": 1}]}]},
         "atoms[0].x: must be finite, got [inf]"),
        ("simulate", {"scheme": implicit, "measures": [{"dim": 2, "denominator": 2,
                      "atoms": [{"x": [0.0, 1.0], "mult": 1}, {"x": [0.0, "one"], "mult": 1}]}]},
         "atoms[1].x: could not convert string to float"),
        ("simulate", {"scheme": implicit, "field": {"kind": "superposition", "params": {"components": [
                      {"weight": 0.5, "field": {"kind": "linear",
                                                "params": {"matrix": [[-1.0]], "offset": [0.0]}}},
                      {"weight": 0.5, "field": {"kind": "barycentric",
                                                "params": {"strength": math.inf, "drift": [0.0]}}}]}}},
         "params.components[1].field.params.strength: must be finite, got inf"),
    ]
    for command, overrides, message in cases:
        cfg = {
            "experiment": command,
            "field": {"kind": "barycentric", "params": {"strength": 1.0, "drift": [0.0]}},
            "measures": [measure_to_json(DiscreteMeasure.dirac([1.0]))],
            "params": {"T": 1.0},
            **overrides,
        }
        cpath = tmp_path / "cfg.json"
        write_json(cpath, cfg)
        assert main([command, str(cpath), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert message in err, err
