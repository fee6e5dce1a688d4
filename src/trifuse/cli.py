"""Command line entry point.

Subcommands:

    gradcheck   finite-difference check of every differentiable op
    train-toy   train on synthetic identity data, logging metrics
    eval        evaluate a train-toy output directory's checkpoint
    ablate      train the toggle grid and tabulate mAP vs trainable params

Shared flags (--config, --seed, --out, --precision, --threads) are accepted
before or after the subcommand name.

Only argparse and os are imported at module level: --threads must take
effect before numpy initializes its thread pools, so everything numeric is
imported inside main() after the environment is set. Keeping this module
import-light is also why the package __init__ resolves its exports
lazily.
"""

from __future__ import annotations

import argparse
import os
import sys

_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

#: the variants ``ablate`` trains, in order: name and toggles
ABLATE_GRID = (
    ("frozen", dict(use_pfa=False, use_srp=False, use_ma=False)),
    ("pfa", dict(use_pfa=True, use_srp=False, use_ma=False)),
    ("srp", dict(use_pfa=False, use_srp=True, use_ma=False)),
    ("pfa_srp", dict(use_pfa=True, use_srp=True, use_ma=False)),
    ("full", dict(use_pfa=True, use_srp=True, use_ma=True)),
)


def _int_at_least(low: int):
    """An argparse type: an int no smaller than ``low``, refused at parse
    time with one ``error:`` line otherwise."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _shared_flags(parser: argparse.ArgumentParser,
                  repeated: bool = False) -> None:
    """Attach the flags every subcommand understands.

    Registered twice: on the main parser with real defaults, and on each
    subparser with SUPPRESS defaults, so the flags are accepted on either
    side of the subcommand name and a post-subcommand occurrence wins.
    """
    def default(value):
        return argparse.SUPPRESS if repeated else value

    parser.add_argument("--config", default=default(None),
                        help="key=value config file")
    parser.add_argument("--seed", type=_nonnegative_int, default=default(None),
                        help="run seed (default 0; eval: the checkpoint's)")
    parser.add_argument("--out", default=default(None),
                        help="output directory")
    parser.add_argument("--precision", choices=("f32", "f64"),
                        default=default("f64"), help="default tensor dtype")
    parser.add_argument("--threads", type=_positive_int, default=default(None),
                        help="BLAS/OpenMP thread count, set before numpy loads")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trifuse",
        description="multi-modal fusion toy experiments")
    _shared_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("gradcheck", "finite-difference gradient suite"),
        ("train-toy", "train on synthetic data"),
        ("eval", "evaluate a finished train-toy directory"),
        ("ablate", "toggle-grid comparison"),
    )
    for name, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        _shared_flags(p, repeated=True)
        if name == "train-toy":
            p.add_argument("--resume-from",
                           help="checkpoint directory to continue from")
            p.add_argument("--halt-after", type=_positive_int, default=None,
                           help="checkpoint and stop after this many steps")
    return parser


def _require_out(args) -> str:
    if not args.out:
        sys.exit(f"error: {args.command} requires --out")
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _load_config(args):
    from .config import RunConfig, load_config
    if args.config:
        return load_config(args.config)
    return RunConfig()


def cmd_gradcheck(args) -> int:
    from .dump import write_atomic
    from .gradcheck import format_report, run_suite
    results = run_suite(seed=args.seed)
    report = format_report(results)
    print(report, end="")
    if args.out:
        _require_out(args)
        write_atomic(os.path.join(args.out, "gradcheck.tsv"), [report.encode()])
    return 0 if all(r.ok for r in results) else 1


def cmd_train(args) -> int:
    from .train import train
    out = _require_out(args)
    cfg = _load_config(args)
    summary = train(cfg, seed=args.seed, out_dir=out,
                    resume_from=args.resume_from, halt_after=args.halt_after)
    print(f"final map {summary['map']:.4f} cmc1 {summary['cmc1']:.4f} "
          f"trainable {summary['trainable']}")
    return 0


def cmd_eval(args) -> int:
    from .config import load_config
    from .dump import read_meta
    from .retrieval import format_table, write_csv
    from .train import build_model, build_world, evaluate_model, Adam, _restore
    out = _require_out(args)
    cfg_path = os.path.join(out, "config.cfg")
    ckpt = os.path.join(out, "checkpoint")
    if not os.path.exists(cfg_path) or not os.path.isdir(ckpt):
        sys.exit(f"error: {out} does not look like a train-toy output "
                 "(missing config.cfg or checkpoint/)")
    try:
        meta = read_meta(ckpt)
    except (OSError, ValueError) as err:
        # a missing or corrupt state file
        sys.exit(f"error: {err}")
    seed = meta.get("seed") if args.seed is None else args.seed
    if seed is None:
        sys.exit(f"error: {ckpt} records no seed; pass --seed")
    cfg = load_config(cfg_path)
    model = build_model(cfg, seed)
    _restore(model, Adam(model.named_params()), ckpt, seed, cfg)
    # the world goes once its splits are rendered, as in train()
    query, gallery = build_world(cfg, seed).eval_parts(
        cfg.eval_instances_per_id, cfg.eval_queries_per_id)
    result = evaluate_model(model, query, gallery)
    print(format_table(result), end="")
    write_csv(os.path.join(out, "eval_report.csv"), result)
    return 0


def cmd_ablate(args) -> int:
    from dataclasses import replace
    from .dump import write_atomic
    from .train import train
    out = _require_out(args)
    cfg = _load_config(args)
    lines = ["variant\tmap\tcmc1\ttrainable"]
    for name, toggles in ABLATE_GRID:
        row_cfg = replace(cfg, **toggles)
        summary = train(row_cfg, seed=args.seed,
                        out_dir=os.path.join(out, name), quiet=True)
        lines.append(f"{name}\t{summary['map']:.17g}"
                     f"\t{summary['cmc1']:.17g}\t{summary['trainable']}")
        print(lines[-1])
    write_atomic(os.path.join(out, "ablation.tsv"),
                 [("\n".join(lines) + "\n").encode()])
    return 0


_COMMANDS = {
    "gradcheck": cmd_gradcheck,
    "train-toy": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed is None and args.command != "eval":
        args.seed = 0
    if args.threads is not None:
        if "numpy" in sys.modules:
            print("warning: numpy already imported, --threads may not take "
                  "full effect", file=sys.stderr)
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)
    if args.precision == "f32":
        if args.command == "gradcheck":
            sys.exit("error: gradcheck runs in float64 only, its "
                     "finite-difference steps and tolerances being "
                     "float64's; drop --precision f32")
        import numpy as np
        from .tensor import set_default_dtype
        set_default_dtype(np.float32)
    from .train import RestoreRefused
    try:
        return _COMMANDS[args.command](args)
    except RestoreRefused as err:
        # a checkpoint that train-toy --resume-from or eval may not load
        sys.exit(f"error: {err}")


if __name__ == "__main__":
    sys.exit(main())
