"""Command-line entry point for all workflows.

Subcommands: ``bench`` (benchmark sweeps), ``curves`` (schedule inspection),
``train`` (fit the classifier), ``eval`` (score a saved model), ``eda``
(dataset cleaning echo and correlation matrix).

Configuration precedence: explicit command-line flags override values from
the ``--config`` JSON file, which override the LUPUS_SEED environment
variable (for the seed), which overrides built-in defaults. The config file
holds one section per subcommand plus an optional top-level "seed":

    {"seed": 7, "bench": {"functions": "f1,f6", "dims": "30"}}

Each option's click type parses and checks its value, from a flag or from the
config file alike, so the command bodies read parsed values. A bad value
exits 1 naming its flag, or the config file and ``<section>.<key>``.

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

from . import benchfns, curves, dataprep, harness, metrics, mlp, optimizer
from .errors import ConfigError, DataError
from .fileio import write_text_atomic
from .seeding import derive_seed

DEFAULT_SEED = 42
DEFAULT_DATA = "data/heart.csv"
DEFAULT_OUT = "results"

_INERTIA_DEFAULT = ",".join(map(repr, dataclasses.astuple(curves.INERTIA_DEFAULTS)))
_LEADER_DEFAULT = ",".join(map(repr, dataclasses.astuple(curves.LEADER_WEIGHT_DEFAULTS)))


class _Parsed(click.ParamType):
    """A flag value that ``parse`` reads from its text and checks; click names
    a failure by the flag and :func:`_resolve` by the config file and key. A
    default that is not text is left to :func:`_resolve`."""

    def __init__(self, metavar, parse):
        self.name, self.parse = metavar, parse

    def convert(self, value, param, ctx):
        try:
            return self.parse(value) if isinstance(value, str) else value
        except (ConfigError, ValueError) as exc:
            self.fail(str(exc), param, ctx)


def _ids(known):
    def parse(text):
        items = tuple(p.strip() for p in text.split(",") if p.strip())
        if not items or len(set(items)) < len(items) or any(i not in known for i in items):
            raise ConfigError(f"{text!r}: expects distinct comma-separated ids of "
                              f"{', '.join(known)}")
        return items
    return _Parsed("ID,ID,...", parse)


def _sizes(text, distinct=False):
    try:
        sizes = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        sizes = ()
    if not sizes or min(sizes) < 1:
        raise ConfigError(f"expects comma-separated positive integers, got {text!r}")
    if distinct and len(set(sizes)) < len(sizes):
        raise ConfigError(f"expects distinct values, got {text!r}")
    return sizes


def _numbers(text, n):
    parts = text.split(",")
    if len(parts) != n:
        raise ConfigError(f"expects {n} comma-separated numbers, got {text!r}")
    return tuple(map(float, parts))


def _bounds(text):
    space = optimizer.SearchSpace(1, *_numbers(text, 2))
    return space.lower, space.upper


def _checked(check, *args):
    def parse(text):
        value = float(text)
        check(value, *args)
        return value
    return _Parsed("FLOAT", parse)


def _check_output(directory, *names):
    """Check, before any work starts, that the output directory is one or can
    be made (the nearest existing part of its path is a directory) and that
    none of the named files in it is a directory."""
    for part in (directory, *directory.parents):
        if part.exists():
            if not part.is_dir():
                raise ConfigError(f"{str(part)!r}: not a directory")
            break
    for name in names:
        if (directory / name).is_dir():
            raise ConfigError(f"{str(directory / name)!r}: is a directory")


def _output(*names, subdir=None):
    """An output directory that will hold the files ``names`` and the
    directory ``subdir``; with no names, an output file."""
    def parse(text):
        path = Path(text)
        if names:
            _check_output(path, *names)
        else:
            _check_output(path.parent, path.name)
        if subdir:
            _check_output(path / subdir)
        return text
    return _Parsed("DIRECTORY" if names else "FILE", parse)


_CURVE = _Parsed("A,B,C,D", lambda text: curves.CurveParams(*_numbers(text, 4)))
_UNIT = _checked(metrics.check_unit_interval, "value")


def _load_config(path):
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except (ValueError, RecursionError) as exc:
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
            if "\0" in text:  # argv cannot hold a NUL, a file can; no path can
                raise click.BadParameter(f"{text!r} holds a NUL character")
            resolved[name] = params[name].type_cast_value(ctx, text)
        except click.BadParameter as exc:
            raise ConfigError(f"config file {path}: {label}: {exc.message}") from None
    for name, value in resolved.items():
        if isinstance(value, Path):  # an output default, checked once no config value replaced it
            resolved[name] = params[name].type_cast_value(ctx, str(value))
    return resolved


_config_option = click.option("--config", type=click.Path(), default=None,
                              help="JSON config file; flags override its values.")
_seed_option = click.option("--seed", type=int, default=DEFAULT_SEED, envvar="LUPUS_SEED",
                            help="Base seed; every stream derives from it.")
_inertia_option = click.option("--inertia", type=_CURVE, default=_INERTIA_DEFAULT,
                               help="Inertia curve a,b,c,d.")
_leader_option = click.option("--leader", type=_CURVE, default=_LEADER_DEFAULT,
                              help="Leader weight curve a,b,c,d.")
_data_option = click.option("--data", default=DEFAULT_DATA, help="Input CSV table.")
_impute_option = click.option("--impute/--drop-missing", default=False,
                              help="Mode-impute missing cells instead of dropping rows.")


@click.group(context_settings={"show_default": True})
def cli():
    """Swarm optimization benchmarks and the swarm-trained heart classifier."""


@cli.command("bench")
@click.option("--functions", type=_ids(benchfns.REGISTRY), default="f1,f2,f3,f4,f5,f6",
              help="Comma-separated benchmark ids.")
@click.option("--dims", type=_Parsed("N,N,...", lambda text: _sizes(text, True)), default="30",
              help="Comma-separated dimensions.")
@click.option("--algs", type=_ids(harness.ALGORITHMS), default="gwo,cgwo,agwo,acgwo,pso",
              help="Comma-separated algorithm ids.")
@click.option("--runs", type=click.IntRange(min=1), default=10, help="Independent runs per cell.")
@click.option("--agents", type=click.IntRange(min=3), default=40,
              help="Swarm size for benchmark sweeps.")
@click.option("--iters", type=click.IntRange(min=1), default=500, help="Iterations per run.")
@_inertia_option
@_leader_option
@click.option("--workers", type=click.IntRange(min=1), default=1,
              help="Process pool size for cell runs.")
@click.option("--out", type=_output("table.csv", subdir="convergence"), default=Path(DEFAULT_OUT),
              help="Output directory.")
@_seed_option
@_config_option
@click.pass_context
def cmd_bench(ctx, **_kwargs):
    """Sweep algorithms over benchmark functions and export statistics."""
    p = _resolve(ctx, "bench")
    out = Path(p["out"])
    plan = harness.ExperimentPlan(
        algorithms=p["algs"],
        functions=p["functions"],
        dims=p["dims"],
        n_runs=p["runs"],
        base_seed=p["seed"],
        n_agents=p["agents"],
        max_iter=p["iters"],
        inertia=p["inertia"],
        leader=p["leader"],
    )
    histories = harness.run_plan(plan, workers=p["workers"])
    harness.export_table(histories, out / "table.csv")
    harness.export_convergence(histories, out / "convergence")
    click.echo(f"wrote {out / 'table.csv'} ({len(harness.cell_finals(histories))} rows) and "
               f"{len(histories)} convergence series")


@cli.command("curves")
@click.option("--iters", type=click.IntRange(min=1), default=1000,
              help="Schedule horizon; rows cover 0..iters inclusive.")
@_inertia_option
@_leader_option
@click.option("--out", type=_output(), default=Path(DEFAULT_OUT, "curves.csv"),
              help="Output CSV path.")
@_config_option
@click.pass_context
def cmd_curves(ctx, **_kwargs):
    """Dump the control, inertia and unit-ratio leader weight schedules."""
    p = _resolve(ctx, "curves")
    iters = p["iters"]
    fi_unit = curves.leader_weight(1.0, 1.0, p["leader"])
    lines = ["iter,wa,ww,fi_unit"]
    for it in range(iters + 1):
        wa = optimizer.control_wa(it, iters)
        ww = curves.cauchy_inertia(it, iters, p["inertia"])
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
@_data_option
@click.option("--mode", type=click.Choice(list(mlp.MODES)), default="acgwo-bp",
              help="Training mode; acgwo-bp is the hybrid.")
@click.option("--hidden", default="16",
              type=_Parsed("N,N,...", lambda text: _sizes(text) if text.strip() else ()),
              help="Comma-separated hidden layer sizes; empty for none.")
@click.option("--bounds", type=_Parsed("LO,HI", _bounds), default="-5.0,5.0",
              help="Search bounds lo,hi for the swarm phase.")
@click.option("--swarm", type=click.IntRange(min=3), default=100,
              help="Swarm size for the search phase.")
@click.option("--iters", type=click.IntRange(min=1), default=1000, help="Swarm iterations.")
@click.option("--bp-epochs", type=click.IntRange(min=0), default=100,
              help="Full-batch gradient steps.")
@click.option("--learning-rate", type=_checked(mlp.check_learning_rate), default="0.1",
              help="Gradient step size.")
@click.option("--threshold", type=_UNIT, default="0.5",
              help="Decision threshold on the predicted probability.")
@click.option("--train-fraction", type=_UNIT, default="0.7", help="Stratified train share.")
@_impute_option
@click.option("--out", type=_output("model.json", "train_report.json"), default=Path(DEFAULT_OUT),
              help="Output directory for model.json and train_report.json.")
@_seed_option
@_config_option
@click.pass_context
def cmd_train(ctx, **_kwargs):
    """Clean, split, standardize, train, and persist the classifier."""
    p = _resolve(ctx, "train")
    seed = p["seed"]
    threshold = p["threshold"]
    arch = mlp.MlpArchitecture((len(dataprep.FEATURE_NAMES),) + p["hidden"] + (1,))
    out = Path(p["out"])
    split_seed = derive_seed(seed, "split")
    ds = dataprep.clean(dataprep.load_table(p["data"]), impute=p["impute"])
    train, test = dataprep.stratified_split(ds, p["train_fraction"], split_seed)
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
        arch, x_train, train.y, swarm, p["bounds"], 0 if mode == "acgwo" else bp_epochs,
        p["learning_rate"], derive_seed(seed, "init"))

    model = mlp.TrainedModel(
        layer_sizes=arch.layer_sizes,
        params=params,
        scaler_mean=stats.mean,
        scaler_std=stats.std,
        threshold=threshold,
        split_seed=split_seed,
        train_fraction=p["train_fraction"],
        impute=p["impute"],
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
        "bounds": list(p["bounds"]),
        "swarm": p["swarm"],
        "iters": p["iters"],
        "bp_epochs": bp_epochs,
        "learning_rate": p["learning_rate"],
        "threshold": threshold,
        "train_fraction": p["train_fraction"],
        "impute": p["impute"],
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
              help="Trained model file.")
@_data_option
@click.option("--out", type=_output("eval.json", "eval.csv"), default=Path(DEFAULT_OUT),
              help="Output directory for eval.json and eval.csv.")
@_config_option
@click.pass_context
def cmd_eval(ctx, **_kwargs):
    """Evaluate a saved model on its held-out split."""
    p = _resolve(ctx, "eval")
    out = Path(p["out"])
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
@_data_option
@_impute_option
@click.option("--out", type=_output(), default=Path(DEFAULT_OUT, "corr.csv"),
              help="Correlation matrix output path.")
@click.option("--clean-out", type=_output(), default=Path("data", "clean.csv"),
              help="Cleaned dataset echo path.")
@_config_option
@click.pass_context
def cmd_eda(ctx, **_kwargs):
    """Echo the cleaned table and export the labeled correlation matrix."""
    p = _resolve(ctx, "eda")
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
