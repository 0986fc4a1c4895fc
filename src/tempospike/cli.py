"""Command-line entry point: dataset synthesis, training, architecture search,
ablation sweeps, and energy profiling.

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 runtime
divergence. Every command writes a ``run.json`` with its fully resolved
configuration next to its outputs, and all randomness flows from one --seed
through named stream splits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import nas
from .data import DataError, Dataset, gen_delayed_recall, load_dataset, save_dataset
from .graph import (
    MAX_DATASET_BYTES,
    ArchSpec,
    GraphError,
    SpecValidationError,
    load_spec,
    param_count,
    save_spec,
    validate,
)
from .metrics import energy_total, profile_network
from .trainer import (
    LOSSES,
    SCHEDULERS,
    ConfigError,
    DivergenceError,
    TrainConfig,
    TrainError,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    split_seed,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write_run_record(out_dir: Path, command: str, args: argparse.Namespace,
                      train_config: dict | None = None) -> None:
    """Write ``run.json``: the resolved arguments and, for a command that
    trains, ``train_config``, the ``TrainConfig`` it trains with as a dict."""
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved = {k: (str(v) if isinstance(v, Path) else v) for k, v in vars(args).items()
                if k != "func"}
    resolved["command"] = command
    if train_config is not None:
        resolved["train_config"] = train_config
    (out_dir / "run.json").write_text(json.dumps(resolved, indent=2) + "\n",
                                      encoding="utf-8")


def _refuse_above_bound(what: str, shape: tuple[int, ...]) -> None:
    """A ``UsageError`` if a float64 array of ``shape`` would take more than
    ``MAX_DATASET_BYTES``."""
    size = 8 * math.prod(shape)
    if size > MAX_DATASET_BYTES:
        raise UsageError(f"{what} of shape {shape} needs {size} bytes, above the limit of "
                         f"{MAX_DATASET_BYTES}")


def cmd_synth(args) -> int:
    if args.D >= args.T:
        raise UsageError(f"--D must be smaller than --T (got D={args.D}, T={args.T})")
    if args.n < 1 or args.n_test < 0:
        raise UsageError(f"need --n >= 1 and --n-test >= 0, got {args.n} and {args.n_test}")
    _refuse_above_bound("dataset", (args.n + args.n_test, args.T, args.classes + 1))
    out = Path(args.out)
    _write_run_record(out, "synth", args)
    data_rng = split_seed(args.seed, "data")
    n_total = args.n + args.n_test
    ds = gen_delayed_recall(args.D, args.T, n_total, classes=args.classes,
                            noise=args.noise, seed=int(data_rng.integers(2**31 - 1)))
    train_ds = Dataset(ds.inputs[:args.n], ds.labels[:args.n], dict(ds.meta))
    save_dataset(train_ds, out / "train")
    if args.n_test:
        test_ds = Dataset(ds.inputs[args.n:], ds.labels[args.n:], dict(ds.meta))
        save_dataset(test_ds, out / "test")
    print(f"wrote {args.n} train / {args.n_test} test samples under {out}")
    return EXIT_OK


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs, batch_size=args.batch, lr_init=args.lr,
        scheduler=args.scheduler, lr_min=args.lr_min, gamma=args.gamma,
        step_every=args.every, loss=args.loss, dropout=args.dropout,
        seed=args.seed, bntt=args.bntt,
    )


def cmd_train(args) -> int:
    out = Path(args.out)
    cfg = _train_config(args)
    spec = load_spec(args.spec)
    violations = validate(spec)
    if violations:
        raise SpecValidationError(violations)
    train_config = asdict(cfg)
    _write_run_record(out, "train", args, train_config)
    train_ds = load_dataset(args.data)
    val_ds = load_dataset(args.val_data) if args.val_data else None
    net, records = train(spec, train_ds, cfg, val_ds=val_ds, log_path=out / "metrics.csv")
    save_checkpoint(out / "checkpoint.npz", net, extra={"train_config": train_config})
    last = records[-1]
    print(f"trained {cfg.epochs} epochs; final {last.split} loss {last.loss:.4f}, "
          f"accuracy {last.accuracy:.4f}")
    return EXIT_OK


def cmd_search(args) -> int:
    if args.probe_batch < 2:
        raise UsageError(f"--probe-batch must be at least 2, got {args.probe_batch}")
    if args.parallel is not None and args.parallel < 1:
        raise UsageError(f"--parallel must be at least 1, got {args.parallel}")
    out = Path(args.out)
    if args.space:
        try:
            fields = json.loads(Path(args.space).read_text(encoding="utf-8"))
            space = nas.SearchSpace(**{k: tuple(v) if isinstance(v, list) else v
                                       for k, v in fields.items()})
        except (OSError, AttributeError, TypeError, ValueError) as err:
            raise nas.SearchError(f"cannot load search space {args.space}: {err}") from None
    elif args.preset:
        overrides = {}
        if args.budget is not None:
            overrides["param_budget"] = args.budget
        space = nas.preset_space(args.preset, **overrides)
    else:
        raise UsageError("search needs --preset or --space")
    probe_shape = (space.T, args.probe_batch) + space.input_shape
    _refuse_above_bound("probe", probe_shape)
    _write_run_record(out, "search", args)
    probe_rng = split_seed(args.seed, "probe")
    probe = probe_rng.random(probe_shape) < 0.1
    ranked = nas.random_search(space, args.n, probe, args.k,
                               master_seed=args.seed, parallel=args.parallel)
    lines = ["rank,score,params,depth,tskips,spec_path"]
    for rank, cand in enumerate(ranked, start=1):
        spec_path = out / f"spec_rank{rank}.json"
        save_spec(cand.spec, spec_path)
        lines.append(f"{rank},{cand.score:.6f},{param_count(cand.spec)},"
                     f"{cand.spec.depth},{len(cand.spec.tskips)},{spec_path.name}")
    (out / "report.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"scored {args.n} candidates; top {args.k} written to {out}")
    return EXIT_OK


def _apply_ablation(spec: ArchSpec, axis: str, value: int) -> ArchSpec:
    if axis == "delta_t":
        if not spec.tskips:
            raise GraphError("delta_t sweep needs a spec with at least one skip edge")
        edges = tuple(replace(e, delta_t=value) for e in spec.tskips)
        return replace(spec, tskips=edges)
    if axis == "position":
        if not spec.tskips:
            raise GraphError("position sweep needs a spec with at least one skip edge")
        edges = (replace(spec.tskips[0], dest=value),) + spec.tskips[1:]
        return replace(spec, tskips=edges)
    if axis == "depth":
        hidden = spec.layers[0]
        readout = spec.layers[-1]
        layers = tuple([hidden] * (value - 1) + [readout])
        edges = tuple(replace(e, dest=min(e.dest, value), origin=min(e.origin, value))
                      for e in spec.tskips)
        return replace(spec, layers=layers, tskips=edges)
    raise UsageError(f"unknown ablation axis {axis!r}")


def cmd_ablate(args) -> int:
    try:
        grid = [int(v) for v in args.grid.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"--grid must list integers, got {args.grid!r}") from None
    if not grid:
        raise UsageError("--grid must name at least one value")
    cfg = _train_config(args)
    out = Path(args.out)
    base_spec = load_spec(args.spec)
    _write_run_record(out, "ablate", args, asdict(cfg))
    train_ds = load_dataset(args.data)
    val_ds = load_dataset(args.val_data) if args.val_data else None
    rows = ["axis,value,status,accuracy,loss,spike_rate,energy_mj"]
    for value in grid:
        try:
            spec = _apply_ablation(base_spec, args.axis, value)
        except (GraphError, UsageError) as err:
            rows.append(f"{args.axis},{value},invalid ({err}),,,,")
            continue
        violations = validate(spec)
        if violations:
            rows.append(f"{args.axis},{value},invalid ({violations[0]}),,,,")
            print(f"warning: skipping {args.axis}={value}: {violations[0]}", file=sys.stderr)
            continue
        try:
            net, records = train(spec, train_ds, cfg, val_ds=val_ds)
        except DivergenceError as err:
            rows.append(f"{args.axis},{value},diverged ({err}),,,,")
            continue
        eval_ds = val_ds if val_ds is not None else train_ds
        loss_v, acc_v, stats = evaluate(net, eval_ds, cfg)
        report = energy_total(profile_network(spec, stats))
        rows.append(f"{args.axis},{value},ok,{acc_v:.6f},{loss_v:.6f},"
                    f"{stats.overall_rate():.6f},{report.total_joules * 1e3:.6f}")
    (out / "sweep.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(f"swept {args.axis} over {grid}; results in {out / 'sweep.csv'}")
    return EXIT_OK


def cmd_energy(args) -> int:
    cfg = TrainConfig(epochs=1, batch_size=args.batch, seed=args.seed)
    out = Path(args.out)
    net, _ = load_checkpoint(args.checkpoint)
    _write_run_record(out, "energy", args)
    ds = load_dataset(args.data)
    _, _, stats = evaluate(net, ds, cfg)
    report = energy_total(profile_network(net.spec, stats))
    (out / "energy.csv").write_text(report.to_csv(), encoding="utf-8")
    (out / "energy.txt").write_text(report.to_text(), encoding="utf-8")
    print(report.to_text())
    return EXIT_OK


def build_parser() -> _Parser:
    p = _Parser(prog="tempospike", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic dataset")
    sp.add_argument("--task", choices=["delayed-recall"], default="delayed-recall")
    sp.add_argument("--D", type=int, required=True, help="recall delay in steps")
    sp.add_argument("--T", type=int, required=True, help="sequence length")
    sp.add_argument("--n", type=int, default=2000, help="training samples")
    sp.add_argument("--n-test", type=int, default=500)
    sp.add_argument("--classes", type=int, default=10)
    sp.add_argument("--noise", type=float, default=0.9, help="decoy cue rate per step")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_synth)

    def add_train_flags(q):
        q.add_argument("--epochs", type=int, default=100)
        q.add_argument("--batch", type=int, default=64)
        q.add_argument("--lr", type=float, default=1e-3)
        q.add_argument("--scheduler", choices=SCHEDULERS, default="cosine")
        q.add_argument("--lr-min", type=float, default=5e-6)
        q.add_argument("--gamma", type=float, default=0.7)
        q.add_argument("--every", type=int, default=10,
                       help="cosine: iterations per update; multistep: epochs per decay")
        q.add_argument("--loss", choices=LOSSES, default="cross_entropy")
        q.add_argument("--dropout", type=float, default=0.0)
        q.add_argument("--seed", type=int, default=0)
        q.add_argument("--bntt", action="store_true", default=None,
                       help="normalize hidden drives with per-timestep statistics")
        q.add_argument("--no-bntt", dest="bntt", action="store_false")

    tp = sub.add_parser("train", help="train a spec on a dataset")
    tp.add_argument("--spec", required=True)
    tp.add_argument("--data", required=True, help="dataset dir or manifest path")
    tp.add_argument("--val-data", default=None)
    add_train_flags(tp)
    tp.add_argument("--out", required=True)
    tp.set_defaults(func=cmd_train)

    qp = sub.add_parser("search", help="training-free random architecture search")
    qp.add_argument("--preset", choices=sorted(nas.PRESETS), default=None)
    qp.add_argument("--space", default=None, help="JSON search-space file")
    qp.add_argument("--budget", type=int, default=None, help="override parameter budget")
    qp.add_argument("--n", type=int, default=20, help="candidates to draw")
    qp.add_argument("--k", type=int, default=5, help="top candidates to keep")
    qp.add_argument("--probe-batch", type=int, default=16)
    qp.add_argument("--parallel", type=int, default=None,
                    help="score on up to this many threads, at most one per core; "
                         "same ranking as serial")
    qp.add_argument("--seed", type=int, default=0)
    qp.add_argument("--out", required=True)
    qp.set_defaults(func=cmd_search)

    ap = sub.add_parser("ablate", help="sweep one architecture axis")
    ap.add_argument("--axis", choices=["delta_t", "position", "depth"], required=True)
    ap.add_argument("--grid", required=True, help="comma-separated integer grid")
    ap.add_argument("--spec", required=True)
    ap.add_argument("--data", required=True)
    ap.add_argument("--val-data", default=None)
    add_train_flags(ap)
    ap.add_argument("--out", required=True)
    ap.set_defaults(func=cmd_ablate)

    ep = sub.add_parser("energy", help="profile inference energy of a checkpoint")
    ep.add_argument("--checkpoint", required=True)
    ep.add_argument("--data", required=True)
    ep.add_argument("--batch", type=int, default=64)
    ep.add_argument("--seed", type=int, default=0)
    ep.add_argument("--out", required=True)
    ep.set_defaults(func=cmd_energy)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed < 0:  # every command takes one
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (UsageError, ConfigError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (SpecValidationError,) as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DataError, GraphError, nas.SearchError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except DivergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except TrainError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as err:  # sizes under MAX_DATASET_BYTES can still exceed RAM
        print(f"error: out of memory: {str(err) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_VALIDATION


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
