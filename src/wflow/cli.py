"""Scenario runner: the library's experiments as reproducible commands.

Each subcommand reads JSON inputs, runs one experiment, prints a one-line
summary, and writes CSV/JSON artifacts into the output directory.  Exit
codes: 0 on success, 2 when a property check fails, 1 on bad input.
Identical configuration and seed produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from wflow.fields import (
    FieldError,
    Functional,
    field_from_json,
    functional_from_json,
    total_dissipativity_check,
)
from wflow.flows import (
    FlowError,
    ImplicitScheme,
    contraction_check,
    empirical_sampler,
    evi_residual,
    evolve,
    implicit_error_study,
    jko_step,
    mean_field_study,
    scheme_from_json,
)
from wflow.measures import (
    DiscreteMeasure,
    MeasureError,
    coupling_from_json,
    coupling_to_json,
    interpolate,
    measure_from_json,
    measure_to_json,
)
from wflow.operators import OperatorError
from wflow.transport import (
    GeodesicError,
    TransportError,
    geodesic_decompose,
    perturb_for_injectivity,
    w2_exact,
    w_infinity,
)


class ConfigError(ValueError):
    """Configuration problem, reported with the offending field path."""


# ---------------------------------------------------------------------------
# small IO helpers


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fmt(x):
    return repr(float(x))


def _write_csv(path, header, rows):
    lines = [header] + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# config decoding with field-path errors


def _check_experiment(cfg, expected):
    name = cfg.get("experiment")
    if name is not None and name != expected:
        raise ConfigError(f"experiment: config names {name!r} but the {expected!r} command was run")


def _driver_from_config(cfg):
    if "functional" in cfg and "field" in cfg:
        raise ConfigError("config must contain either 'field' or 'functional', not both")
    if "functional" in cfg:
        return functional_from_json(cfg["functional"])
    if "field" in cfg:
        return field_from_json(cfg["field"])
    raise ConfigError("config needs a 'field' or 'functional' entry")


def _field_of(driver):
    return driver.subgradient_field if isinstance(driver, Functional) else driver


def _measures_from_config(cfg, count):
    raw = cfg.get("measures")
    if not isinstance(raw, list) or len(raw) < count:
        raise ConfigError(f"measures: needs a list of at least {count} measure payloads")
    return [measure_from_json(m) for m in raw]


def _params_of(cfg):
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params: needs an object")
    return params


def _param(params, name, cast=float, required=True, default=None):
    if name not in params:
        if required:
            raise ConfigError(f"params.{name}: missing required entry")
        return default
    try:
        value = cast(params[name])
        finite = np.all(np.isfinite(np.asarray(value, dtype=float)))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"params.{name}: {exc}") from exc
    if not finite:
        raise ConfigError(f"params.{name}: must be finite, got {value}")
    return value


def _seed_of(cfg, args, required):
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is None:
        if required:
            raise ConfigError("seed: this experiment needs a seed (config entry or --seed)")
        return None
    try:
        return int(seed)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"seed: {exc}") from exc


def _pass_str(flag):
    return "true" if flag else "false"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_w2(args):
    mu = measure_from_json(_load_json(args.measure_a))
    nu = measure_from_json(_load_json(args.measure_b))
    res = w2_exact(mu, nu)
    print(f"w2 distance = {res.distance}")
    if res.tie_detected:
        print("note: several optimal plans exist; the canonical one was written")
    plan = res.plan
    rows = [
        (str(i), str(j), _fmt(plan.mass[i, j] / plan.denominator))
        for i, j in plan.support_pairs()
    ]
    _write_csv(_out_dir(args) / "w2_plan.csv", "source_index,target_index,mass", rows)
    return 0


def _cmd_winf(args):
    mu = measure_from_json(_load_json(args.measure_a))
    nu = measure_from_json(_load_json(args.measure_b))
    print(f"w-inf distance = {w_infinity(mu, nu)}")
    return 0


def _cmd_decompose(args):
    gamma = coupling_from_json(_load_json(args.coupling))
    tol = args.tol if args.tol is not None else 1e-7
    breakpoints = geodesic_decompose(gamma, tol=tol)
    rows = []
    for k in range(len(breakpoints) - 1):
        lo, hi = breakpoints[k], breakpoints[k + 1]
        speed = w2_exact(interpolate(gamma, lo), interpolate(gamma, hi)).distance / (hi - lo)
        rows.append((str(k), _fmt(lo), _fmt(hi), _fmt(speed)))
    _write_csv(_out_dir(args) / "segments.csv", "segment,t_start,t_end,speed", rows)
    print(f"{len(rows)} geodesic segment(s); breakpoints = {[float(b) for b in breakpoints]}")
    return 0


def _cmd_simulate(args):
    cfg = _load_json(args.config)
    _check_experiment(cfg, "simulate")
    driver = _driver_from_config(cfg)
    mu0 = _measures_from_config(cfg, 1)[0]
    scheme = scheme_from_json(cfg.get("scheme"))
    params = _params_of(cfg)
    horizon = _param(params, "T")
    merge_eps = _param(params, "merge_eps", required=False, default=0.0)
    flow = evolve(driver, mu0, scheme, T=horizon, merge_eps=merge_eps)

    out = _out_dir(args)
    header = "t,particle_index," + ",".join(f"x_{i + 1}" for i in range(mu0.dim))
    rows = []
    for t, lag in zip(flow.times, flow.lagrangian):
        for idx in range(lag.n_particles):
            rows.append((_fmt(t), str(idx), *(_fmt(c) for c in lag.particles[idx])))
    _write_csv(out / "trajectory.csv", header, rows)
    diag = [{"t": t, **entry} for t, entry in zip(flow.times, flow.diagnostics)]
    _write_json(out / "diagnostics.json", diag)
    print(
        f"simulated to T={horizon}: {len(flow.times)} records, "
        f"final support cardinality {flow.measures[-1].support_cardinality}"
    )
    return 0


def _cmd_jko(args):
    cfg = _load_json(args.config)
    _check_experiment(cfg, "jko")
    if "functional" not in cfg:
        raise ConfigError("config needs a 'functional' entry for a minimizing-movement step")
    functional = functional_from_json(cfg["functional"])
    mu = _measures_from_config(cfg, 1)[0]
    tau = _param(_params_of(cfg), "tau")
    if tau <= 0.0:
        raise ConfigError(f"params.tau: must be positive, got {tau}")
    result = jko_step(functional, mu, tau)
    objective = w2_exact(mu, result).distance ** 2 / (2.0 * tau) + functional.phi(result)
    _write_json(_out_dir(args) / "jko_result.json", measure_to_json(result))
    print(f"jko objective = {objective}")
    return 0


def _cmd_verify(args):
    cfg = _load_json(args.config)
    _check_experiment(cfg, "verify")
    field = _field_of(_driver_from_config(cfg))
    params = _params_of(cfg)
    lam = _param(params, "lambda", required=False, default=field.lambda_claim)
    mode = params.get("mode", "exhaustive")
    if mode not in ("exhaustive", "sampled"):
        raise ConfigError(f"params.mode: must be 'exhaustive' or 'sampled', got {mode!r}")
    n_samples = _param(params, "n_samples", int, required=False)
    seed = _seed_of(cfg, args, required=False)

    if cfg.get("measures"):
        measures = _measures_from_config(cfg, 2)
        if len(measures) % 2:
            raise ConfigError("measures: pairs are checked, so an even count is needed")
        pairs = list(zip(measures[0::2], measures[1::2]))
    else:
        n_pairs = _param(params, "n_pairs", int)
        max_card = _param(params, "max_card", int)
        dim = _param(params, "dim", int)
        if seed is None:
            raise ConfigError("seed: required when the verification pairs are drawn at random")
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(n_pairs):
            card = int(rng.integers(1, max_card + 1))
            pairs.append(
                (
                    DiscreteMeasure.from_points(rng.normal(size=(card, dim))),
                    DiscreteMeasure.from_points(rng.normal(size=(card, dim))),
                )
            )

    worst = -np.inf
    witness = None
    for a, b in pairs:
        report = total_dissipativity_check(field, a, b, lam, mode=mode, n_samples=n_samples, seed=seed)
        worst = max(worst, report.worst_gap)
        if not report.passes and witness is None:
            witness = report.witness
    out = _out_dir(args)
    _write_json(
        out / "verify_report.json",
        {"passes": witness is None, "worst_gap": float(worst), "n_pairs": len(pairs)},
    )
    if witness is None:
        print(f"dissipativity holds on {len(pairs)} pair(s); worst gap = {worst}")
        return 0
    _write_json(out / "witness.json", coupling_to_json(witness))
    print(f"dissipativity FAILS: worst gap = {worst}; witness coupling written")
    return 2


def _cmd_contraction(args):
    cfg = _load_json(args.config)
    _check_experiment(cfg, "contraction")
    driver = _driver_from_config(cfg)
    measures = _measures_from_config(cfg, 2)
    scheme = scheme_from_json(cfg.get("scheme"))
    params = _params_of(cfg)
    lam = _param(params, "lambda")
    t_grid = _param(params, "t_grid", lambda v: [float(t) for t in v])
    ratios = contraction_check(driver, measures[0], measures[1], lam, t_grid, scheme)
    rows = [(_fmt(t), _fmt(r)) for t, r in zip(t_grid, ratios)]
    _write_csv(_out_dir(args) / "contraction.csv", "t,ratio", rows)
    print(f"contraction ratios at {t_grid}: {ratios}")
    return 0


def _cmd_euler_study(args):
    cfg = _load_json(args.config)
    _check_experiment(cfg, "euler-study")
    driver = _driver_from_config(cfg)
    mu0 = _measures_from_config(cfg, 1)[0]
    params = _params_of(cfg)
    horizon = _param(params, "t")
    n_list = _param(params, "n_list", lambda v: [int(n) for n in v])
    rows = implicit_error_study(driver, mu0, horizon, n_list)
    csv_rows = [
        (str(r.n), _fmt(r.error), _fmt(r.bound), _pass_str(r.passes)) for r in rows
    ]
    _write_csv(_out_dir(args) / "euler_study.csv", "n,error,bound,pass", csv_rows)
    ok = all(r.passes for r in rows)
    print(f"implicit-step errors within bound: {_pass_str(ok)}")
    return 0 if ok else 2


def _cmd_meanfield(args):
    cfg = _load_json(args.config)
    _check_experiment(cfg, "meanfield")
    driver = _driver_from_config(cfg)
    mu0 = _measures_from_config(cfg, 1)[0]
    scheme = scheme_from_json(cfg.get("scheme"))
    params = _params_of(cfg)
    n_list = _param(params, "N_list", lambda v: [int(n) for n in v])
    horizon = _param(params, "t")
    lam = _param(params, "lambda")
    n_seeds = _param(params, "n_seeds", int)
    slack = _param(params, "slack", required=False, default=1e-6)
    base_seed = _seed_of(cfg, args, required=True)

    csv_rows = []
    ok = True
    for offset in range(n_seeds):
        seed = base_seed + offset
        sampler = empirical_sampler(mu0, seed)
        for row in mean_field_study(driver, mu0, sampler, n_list, t=horizon, lam=lam, scheme=scheme, slack=slack):
            csv_rows.append(
                (
                    str(seed),
                    str(row.n),
                    _fmt(row.initial_error),
                    _fmt(row.final_error),
                    _fmt(row.bound),
                    _pass_str(row.passes),
                )
            )
            ok = ok and row.passes
    _write_csv(_out_dir(args) / "meanfield.csv", "seed,N,initial_error,final_error,bound,pass", csv_rows)
    print(f"mean-field transfer bound holds on all rows: {_pass_str(ok)}")
    return 0 if ok else 2


def _cmd_evi(args):
    cfg = _load_json(args.config)
    _check_experiment(cfg, "evi")
    driver = _driver_from_config(cfg)
    field = _field_of(driver)
    mu0 = _measures_from_config(cfg, 1)[0]
    params = _params_of(cfg)
    horizon = _param(params, "T")
    tau = _param(params, "tau")
    dt_record = _param(params, "dt_record")
    n_comparison = _param(params, "n_comparison", int)
    lam = _param(params, "lambda")
    bound_coeff = _param(params, "bound_coeff", required=False, default=5.0)
    seed = _seed_of(cfg, args, required=True)
    if tau <= 0.0 or dt_record <= 0.0:
        raise ConfigError("params.tau: step sizes must be positive")

    n_records = int(round(horizon / dt_record))
    record_times = [k * dt_record for k in range(n_records + 1)]
    flow = evolve(driver, mu0, ImplicitScheme(tau), T=horizon, record_times=record_times)

    rng = np.random.default_rng(seed)
    rows = []
    ok = True
    for j in range(n_comparison):
        card = int(rng.integers(1, 4))
        nu = DiscreteMeasure.from_points(rng.normal(size=(card, mu0.dim)))
        report = evi_residual(flow, field, lam, nu)
        bound = bound_coeff * (tau + dt_record**2) * (
            1.0 + nu.second_moment() + mu0.second_moment()
        )
        for t, res in zip(report.times, report.residuals):
            rows.append((_fmt(t), str(j), _fmt(res), _fmt(bound)))
            ok = ok and res <= bound
    _write_csv(_out_dir(args) / "evi_residuals.csv", "t,comparison_index,residual,bound", rows)
    print(f"evi residuals within bound: {_pass_str(ok)}")
    return 0 if ok else 2


def _cmd_perturb(args):
    cfg = _load_json(args.config)
    _check_experiment(cfg, "perturb")
    params = _params_of(cfg)
    a = np.asarray(_param(params, "A", np.asarray), dtype=float)
    b = np.asarray(_param(params, "B", np.asarray), dtype=float)
    radius = _param(params, "radius")
    seed = _seed_of(cfg, args, required=True)
    b_prime = perturb_for_injectivity(a, b, radius, seed)
    _write_json(_out_dir(args) / "b_prime.json", {"points": b_prime.tolist()})
    print(f"safe perturbation of {b.shape[0]} point(s) found within radius {radius}")
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch


def _add_common(sub):
    sub.add_argument("--out", default=".", help="output directory for artifacts")
    sub.add_argument("--seed", type=int, default=None, help="seed overriding the config entry")
    sub.add_argument("--tol", type=float, default=None, help="tolerance override where applicable")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wflow",
        description="Evolve and verify finitely supported measures under dissipative velocity laws.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    w2 = subs.add_parser("w2", help="exact quadratic transport distance between two measures")
    w2.add_argument("measure_a")
    w2.add_argument("measure_b")
    _add_common(w2)
    w2.set_defaults(handler=_cmd_w2)

    winf = subs.add_parser("w-inf", help="bottleneck transport distance between two measures")
    winf.add_argument("measure_a")
    winf.add_argument("measure_b")
    _add_common(winf)
    winf.set_defaults(handler=_cmd_winf)

    dec = subs.add_parser("decompose", help="split a coupling's displacement line into geodesic segments")
    dec.add_argument("coupling")
    _add_common(dec)
    dec.set_defaults(handler=_cmd_decompose)

    for name, handler in (
        ("simulate", _cmd_simulate),
        ("jko", _cmd_jko),
        ("verify", _cmd_verify),
        ("evi", _cmd_evi),
        ("contraction", _cmd_contraction),
        ("euler-study", _cmd_euler_study),
        ("meanfield", _cmd_meanfield),
        ("perturb", _cmd_perturb),
    ):
        sub = subs.add_parser(name, help=f"run the {name} experiment from a JSON config")
        sub.add_argument("config")
        _add_common(sub)
        sub.set_defaults(handler=handler)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GeodesicError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MeasureError, TransportError, FieldError, OperatorError, FlowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        print(f"error: malformed input: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
