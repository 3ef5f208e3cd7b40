"""Command-line entry point for all workflows.

Subcommands: ``bench`` (benchmark sweeps), ``curves`` (schedule inspection),
``train`` (fit the classifier), ``eval`` (score a saved model), ``eda``
(dataset cleaning echo and correlation matrix).

Configuration precedence: explicit command-line flags override values from
the ``--config`` JSON file, which override the LUPUS_SEED environment
variable (for the seed), which overrides built-in defaults. The config file
holds one section per subcommand plus an optional top-level "seed":

    {"seed": 7, "bench": {"functions": "f1,f6", "dims": "30"}}

Exit codes: 0 success, 1 usage/configuration error, 2 data error,
3 internal error. Setting LUPUS_DEBUG=1 prints the traceback of an internal
error on stderr.
"""

import dataclasses
import json
import os
import sys
import traceback
from pathlib import Path

import click

from . import curves, dataprep, harness, metrics, mlp, optimizer
from .errors import ConfigError, DataError
from .fileio import write_text_atomic
from .seeding import derive_seed

DEFAULT_SEED = 42
DEFAULT_DATA = "data/heart.csv"
DEFAULT_OUT = "results"

_INERTIA_DEFAULT = ",".join(map(repr, dataclasses.astuple(curves.INERTIA_DEFAULTS)))
_LEADER_DEFAULT = ",".join(map(repr, dataclasses.astuple(curves.LEADER_WEIGHT_DEFAULTS)))


def _parse_curve(text, flag):
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError(f"{flag} expects four comma-separated numbers, got {text!r}")
    try:
        a, b, c, d = (float(p) for p in parts)
        return curves.CurveParams(a=a, b=b, c=c, d=d)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def _parse_id_list(text, flag):
    items = tuple(p.strip() for p in text.split(",") if p.strip())
    if not items:
        raise ConfigError(f"{flag} must name at least one item")
    return items


def _parse_int_list(text, flag):
    try:
        return tuple(int(p) for p in _parse_id_list(text, flag))
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated integers, got {text!r}") from None


def _check_output(flag, directory, *names):
    """Check, before any work starts, that the output directory is one or can
    be made (the nearest existing part of its path is a directory) and that
    none of the named files in it is a directory."""
    for part in (directory, *directory.parents):
        if part.exists():
            if not part.is_dir():
                raise ConfigError(f"{flag} {str(part)!r}: not a directory")
            break
    for name in names:
        if (directory / name).is_dir():
            raise ConfigError(f"{flag} {str(directory / name)!r}: is a directory")


def _load_config(path):
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config file {path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path}: top level must be an object")
    return data


def _resolve(ctx, command):
    """Apply flag > config-file > environment > default precedence.

    A config value passes through its option's click type as the text of its
    flag would; a section key that names no option of the command is an
    error.
    """
    path = ctx.params.get("config")
    config = _load_config(path)
    for key in config:
        if key != "seed" and key not in cli.commands:
            raise ConfigError(f"config file {path}: unknown top-level key {key!r}")
    section = config.get(command, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config file {path}: section {command!r} must be an object")
    params = {p.name: p for p in ctx.command.params if p.name != "config"}
    resolved = {name: ctx.params[name] for name in params}
    overrides = [("seed", "seed", config["seed"])] if "seed" in params and "seed" in config else []
    overrides += [(key, f"{command}.{key}", value) for key, value in section.items()]
    for name, label, value in overrides:
        if name not in params:
            raise ConfigError(f"config file {path}: section {command!r} has unknown key "
                              f"{name!r} (known: {', '.join(params)})")
        if ctx.get_parameter_source(name) == click.core.ParameterSource.COMMANDLINE:
            continue
        if value is None:
            raise ConfigError(f"config file {path}: {label}: null is not a value")
        # A JSON number or boolean is read as its JSON text, as a flag's text
        # is: int() and float() would truncate 2.5 and read true as 1.
        text = value if isinstance(value, str) else json.dumps(value)
        try:
            resolved[name] = params[name].type_cast_value(ctx, text)
        except click.BadParameter as exc:
            raise ConfigError(f"config file {path}: {label}: {exc.message}") from None
    return resolved


_config_option = click.option(
    "--config", type=click.Path(), default=None,
    help="JSON config file; flags override its values.",
)
_seed_option = click.option(
    "--seed", type=int, default=DEFAULT_SEED, show_default=True,
    envvar="LUPUS_SEED", help="Base seed; every stream derives from it.",
)


@click.group()
def cli():
    """Swarm optimization benchmarks and the swarm-trained heart classifier."""


@cli.command("bench")
@click.option("--functions", default="f1,f2,f3,f4,f5,f6", show_default=True,
              help="Comma-separated benchmark ids.")
@click.option("--dims", default="30", show_default=True,
              help="Comma-separated dimensions.")
@click.option("--algs", default="gwo,cgwo,agwo,acgwo,pso", show_default=True,
              help="Comma-separated algorithm ids.")
@click.option("--runs", type=click.IntRange(min=1), default=10, show_default=True,
              help="Independent runs per cell.")
@click.option("--agents", type=click.IntRange(min=3), default=40, show_default=True,
              help="Swarm size for benchmark sweeps.")
@click.option("--iters", type=click.IntRange(min=1), default=500, show_default=True,
              help="Iterations per run.")
@click.option("--inertia", default=_INERTIA_DEFAULT, show_default=True,
              help="Inertia curve a,b,c,d.")
@click.option("--leader", default=_LEADER_DEFAULT, show_default=True,
              help="Leader weight curve a,b,c,d.")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True,
              help="Process pool size for cell runs.")
@click.option("--out", default=DEFAULT_OUT, show_default=True,
              help="Output directory.")
@_seed_option
@_config_option
@click.pass_context
def cmd_bench(ctx, **_kwargs):
    """Sweep algorithms over benchmark functions and export statistics."""
    p = _resolve(ctx, "bench")
    out = Path(p["out"])
    _check_output("--out", out, "table.csv")
    _check_output("--out", out / "convergence")
    algorithms = _parse_id_list(p["algs"], "--algs")
    inertia = _parse_curve(p["inertia"], "--inertia")
    leader = _parse_curve(p["leader"], "--leader")
    optimizer.check_curves(algorithms, inertia, leader, ("--inertia", "--leader"))
    plan = harness.ExperimentPlan(
        algorithms=algorithms,
        functions=_parse_id_list(p["functions"], "--functions"),
        dims=_parse_int_list(p["dims"], "--dims"),
        n_runs=p["runs"],
        base_seed=p["seed"],
        n_agents=p["agents"],
        max_iter=p["iters"],
        inertia=inertia,
        leader=leader,
    )
    result = harness.run_plan(plan, workers=p["workers"])
    harness.export_table(result.rows, out / "table.csv")
    harness.export_convergence(result.histories, out / "convergence")
    click.echo(f"wrote {out / 'table.csv'} ({len(result.rows)} rows) and "
               f"{len(result.histories)} convergence series")


@cli.command("curves")
@click.option("--iters", type=click.IntRange(min=1), default=1000, show_default=True,
              help="Schedule horizon; rows cover 0..iters inclusive.")
@click.option("--inertia", default=_INERTIA_DEFAULT, show_default=True,
              help="Inertia curve a,b,c,d.")
@click.option("--leader", default=_LEADER_DEFAULT, show_default=True,
              help="Leader weight curve a,b,c,d.")
@click.option("--out", default=f"{DEFAULT_OUT}/curves.csv", show_default=True,
              help="Output CSV path.")
@_config_option
@click.pass_context
def cmd_curves(ctx, **_kwargs):
    """Dump the control, inertia and unit-ratio leader weight schedules."""
    p = _resolve(ctx, "curves")
    iters = p["iters"]
    inertia = _parse_curve(p["inertia"], "--inertia")
    leader = _parse_curve(p["leader"], "--leader")
    out = Path(p["out"])
    _check_output("--out", out.parent, out.name)
    fi_unit = curves.leader_weight(1.0, 1.0, leader)
    lines = ["iter,wa,ww,fi_unit"]
    for it in range(iters + 1):
        wa = optimizer.control_wa(it, iters)
        ww = curves.cauchy_inertia(it, iters, inertia)
        lines.append(f"{it},{wa!r},{ww!r},{fi_unit!r}")
    write_text_atomic(p["out"], "\n".join(lines) + "\n")
    click.echo(f"wrote {p['out']} ({iters + 1} rows)")


def _print_report(label, report):
    click.echo(
        f"{label}: acc={report.accuracy:.4f} auc={report.auc:.4f} "
        f"pre={report.precision:.4f} rec={report.recall:.4f} f1={report.f1:.4f} "
        f"(tp={report.counts.tp} tn={report.counts.tn} "
        f"fp={report.counts.fp} fn={report.counts.fn})"
    )


@cli.command("train")
@click.option("--data", default=DEFAULT_DATA, show_default=True,
              help="Input CSV table.")
@click.option("--mode", type=click.Choice(list(mlp.MODES)),
              default="acgwo-bp", show_default=True,
              help="Training mode; acgwo-bp is the hybrid.")
@click.option("--hidden", default="16", show_default=True,
              help="Comma-separated hidden layer sizes; empty for none.")
@click.option("--bounds", default="-5.0,5.0", show_default=True,
              help="Search bounds lo,hi for the swarm phase.")
@click.option("--swarm", type=click.IntRange(min=3), default=100, show_default=True,
              help="Swarm size for the search phase.")
@click.option("--iters", type=click.IntRange(min=1), default=1000, show_default=True,
              help="Swarm iterations.")
@click.option("--bp-epochs", type=click.IntRange(min=0), default=100, show_default=True,
              help="Full-batch gradient steps.")
@click.option("--learning-rate", type=float, default=0.1, show_default=True,
              help="Gradient step size.")
@click.option("--threshold", type=float, default=0.5, show_default=True,
              help="Decision threshold on the predicted probability.")
@click.option("--train-fraction", type=float, default=0.70, show_default=True,
              help="Stratified train share.")
@click.option("--impute/--drop-missing", default=False, show_default=True,
              help="Mode-impute missing cells instead of dropping rows.")
@click.option("--out", default=DEFAULT_OUT, show_default=True,
              help="Output directory for model.json and train_report.json.")
@_seed_option
@_config_option
@click.pass_context
def cmd_train(ctx, **_kwargs):
    """Clean, split, standardize, train, and persist the classifier."""
    p = _resolve(ctx, "train")
    seed = p["seed"]
    threshold = p["threshold"]
    metrics.check_unit_interval(threshold, "--threshold", ConfigError)
    try:
        lo, hi = (float(v) for v in p["bounds"].split(","))
    except ValueError:
        raise ConfigError(f"--bounds expects two numbers lo,hi, got {p['bounds']!r}") from None
    try:
        optimizer.SearchSpace(1, lo, hi)
    except ConfigError as exc:
        raise ConfigError(f"--bounds {p['bounds']!r}: {exc}") from None
    bounds = (lo, hi)
    learning_rate = p["learning_rate"]
    mlp.check_learning_rate(learning_rate, "--learning-rate")
    hidden = ()
    if p["hidden"].strip():
        hidden = _parse_int_list(p["hidden"], "--hidden")
    try:
        arch = mlp.MlpArchitecture((len(dataprep.FEATURE_NAMES),) + hidden + (1,))
    except ConfigError as exc:
        raise ConfigError(f"--hidden {p['hidden']!r}: {exc}") from None
    train_fraction = p["train_fraction"]
    impute = p["impute"]
    out = Path(p["out"])
    _check_output("--out", out, "model.json", "train_report.json")
    split_seed = derive_seed(seed, "split")
    ds = dataprep.clean(dataprep.load_table(p["data"]), impute=impute)
    train, test = dataprep.stratified_split(ds, train_fraction, split_seed)
    stats = dataprep.fit_standardizer(train.X, train.feature_names)
    x_train = dataprep.apply_standardizer(stats, train.X)
    x_test = dataprep.apply_standardizer(stats, test.X)

    mode = mlp.MODES[p["mode"]]
    swarm = None
    if mode != "bp":
        swarm = optimizer.GwoConfig(variant="acgwo", n_agents=p["swarm"],
                                    max_iter=p["iters"], seed=derive_seed(seed, "swarm"))
    bp_epochs = p["bp_epochs"]
    params, loss_history = mlp.train(
        arch, x_train, train.y, swarm, bounds, 0 if mode == "acgwo" else bp_epochs,
        learning_rate, derive_seed(seed, "init"))

    model = mlp.TrainedModel(
        layer_sizes=arch.layer_sizes,
        params=params,
        scaler_mean=stats.mean,
        scaler_std=stats.std,
        threshold=threshold,
        split_seed=split_seed,
        train_fraction=train_fraction,
        impute=impute,
        mode=mode,
    )
    write_text_atomic(out / "model.json", mlp.model_to_json(model))

    train_eval = metrics.evaluate(
        train.y, mlp.forward_batch(arch, params, x_train), threshold)
    test_eval = metrics.evaluate(
        test.y, mlp.forward_batch(arch, params, x_test), threshold)
    report_payload = {
        "mode": mode,
        "seed": seed,
        "layer_sizes": list(arch.layer_sizes),
        "bounds": list(bounds),
        "swarm": p["swarm"],
        "iters": p["iters"],
        "bp_epochs": bp_epochs,
        "learning_rate": learning_rate,
        "threshold": threshold,
        "train_fraction": train_fraction,
        "impute": impute,
        "one_hot": False,  # pinned by the seed-0 witness digests of train_report.json
        "loss_history": [float(v) for v in loss_history],
        "final_train_loss": mlp.bce_loss(arch, params, x_train, train.y),
        "train_metrics": json.loads(train_eval.to_json()),
        "test_metrics": json.loads(test_eval.to_json()),
    }
    write_text_atomic(out / "train_report.json",
                      json.dumps(report_payload, indent=2, sort_keys=True) + "\n")
    _print_report("train", train_eval)
    _print_report("test", test_eval)
    click.echo(f"wrote {out / 'model.json'} and {out / 'train_report.json'}")


@cli.command("eval")
@click.option("--model", "model_path", default=f"{DEFAULT_OUT}/model.json",
              show_default=True, help="Trained model file.")
@click.option("--data", default=DEFAULT_DATA, show_default=True,
              help="Input CSV table.")
@click.option("--out", default=DEFAULT_OUT, show_default=True,
              help="Output directory for eval.json and eval.csv.")
@_config_option
@click.pass_context
def cmd_eval(ctx, **_kwargs):
    """Evaluate a saved model on its held-out split."""
    p = _resolve(ctx, "eval")
    out = Path(p["out"])
    _check_output("--out", out, "eval.json", "eval.csv")
    try:
        text = Path(p["model_path"]).read_text()
    except OSError as exc:
        raise DataError(f"cannot read model file: {exc}") from exc
    model = mlp.model_from_json(text, source=p["model_path"])

    raw = dataprep.load_table(p["data"])
    ds = dataprep.clean(raw, impute=model.impute)
    if ds.X.shape[1] != model.layer_sizes[0]:
        raise DataError(
            f"model expects {model.layer_sizes[0]} features but the data "
            f"has {ds.X.shape[1]}"
        )
    try:
        _, test = dataprep.stratified_split(ds, model.train_fraction, model.split_seed)
    except ConfigError as exc:
        raise DataError(f"{p['model_path']}: {exc}") from None
    stats = dataprep.StandardizationStats(mean=model.scaler_mean, std=model.scaler_std)
    x_test = dataprep.apply_standardizer(stats, test.X)
    scores = mlp.forward_batch(model.architecture, model.params, x_test)
    report = metrics.evaluate(test.y, scores, model.threshold)

    write_text_atomic(out / "eval.json", report.to_json())
    write_text_atomic(out / "eval.csv", report.to_csv())
    _print_report("test", report)
    click.echo(f"wrote {out / 'eval.json'} and {out / 'eval.csv'}")


@cli.command("eda")
@click.option("--data", default=DEFAULT_DATA, show_default=True,
              help="Input CSV table.")
@click.option("--impute/--drop-missing", default=False, show_default=True,
              help="Mode-impute missing cells instead of dropping rows.")
@click.option("--out", default=f"{DEFAULT_OUT}/corr.csv", show_default=True,
              help="Correlation matrix output path.")
@click.option("--clean-out", default="data/clean.csv", show_default=True,
              help="Cleaned dataset echo path.")
@_config_option
@click.pass_context
def cmd_eda(ctx, **_kwargs):
    """Echo the cleaned table and export the labeled correlation matrix."""
    p = _resolve(ctx, "eda")
    for flag, key in (("--out", "out"), ("--clean-out", "clean_out")):
        path = Path(p[key])
        _check_output(flag, path.parent, path.name)
    raw = dataprep.load_table(p["data"])
    ds = dataprep.clean(raw, impute=p["impute"])

    lines = [",".join(ds.feature_names + ("target",))]
    for i in range(ds.n):
        fields = [repr(float(v)) for v in ds.X[i]] + [str(int(ds.y[i]))]
        lines.append(",".join(fields))
    write_text_atomic(p["clean_out"], "\n".join(lines) + "\n")

    matrix, names = dataprep.pearson_corr_matrix(ds)
    lines = ["," + ",".join(names)]
    for name, row in zip(names, matrix):
        lines.append(name + "," + ",".join(repr(float(v)) for v in row))
    write_text_atomic(p["out"], "\n".join(lines) + "\n")
    click.echo(f"wrote {p['clean_out']} ({ds.n} rows) and {p['out']} "
               f"({len(names)}x{len(names)})")


def main(argv=None):
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except (ConfigError, DataError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2 if isinstance(exc, DataError) else 1
    except Exception as exc:
        if os.environ.get("LUPUS_DEBUG") == "1":
            traceback.print_exc()
        click.echo(f"internal error: {exc}", err=True)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
