"""Command-line entry points.

Subcommands: train, eval, diag, export-graph, count. Configs are JSON files
mirroring RunConfig field names. Exit code 0 on success; on failure a single
machine-parsable line ``error:<category>: <message>`` goes to stderr and the
exit code is nonzero.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .data import load_dataset, read_images
from .diagnostics import trace_diversity, write_trace_csv
from .errors import ConfigError, NonFiniteError, PvgError
from .graph import GraphTopology, export_edges
from .net import count_params_flops, load_checkpoint
from .train import RunConfig, _check_batch_size, evaluate, train


def _cmd_train(args) -> int:
    run = RunConfig.from_json(args.config)
    dataset = load_dataset(args.data, args.labels, run.model.num_classes)
    _, metrics = train(run, dataset)
    last = metrics[-1]
    print(
        f"trained {last.epoch + 1} epochs ({last.step} steps): "
        f"loss={last.train_loss:.4f} acc={last.train_acc:.4f}"
    )
    print(f"outputs in {run.output_dir}")
    return 0


def _cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data, args.labels, model.config.num_classes)
    acc, loss = evaluate(model, dataset, batch_size=args.batch_size)
    print(f"accuracy={acc:.6f} loss={loss:.6f}")
    return 0


def _cmd_diag(args) -> int:
    _check_batch_size(args.batch_size)
    model = load_checkpoint(args.checkpoint)
    images = read_images(args.data)
    trace = trace_diversity(model, images[: args.batch_size], run_id=args.run_id)
    write_trace_csv(args.out, trace)
    print(f"wrote {len(trace.per_block)} block rows to {args.out}")
    return 0


def _cmd_export_graph(args) -> int:
    model = load_checkpoint(args.checkpoint)
    images = read_images(args.data)
    if not (0 <= args.image < images.shape[0]):
        raise ConfigError(f"image index {args.image} outside dataset of {images.shape[0]}")
    collect: dict = {"graphs": []}
    model.detached().forward(images[args.image : args.image + 1], collect=collect)
    match = [
        topo
        for block, branch, topo in collect["graphs"]
        if block == args.block and branch == args.branch
    ]
    if not match:
        available = sorted({(b, br) for b, br, _ in collect["graphs"]})
        raise ConfigError(
            f"no {args.branch!r} graph at block {args.block}; available: {available}"
        )
    topo = match[0]  # batched over the one image
    image = GraphTopology(topo.neighbor_idx[0], topo.neighbor_sim[0])
    export_edges(args.out, [(args.block, image)])
    print(f"wrote edges of block {args.block} ({args.branch} graph) to {args.out}")
    return 0


def _cmd_count(args) -> int:
    run = RunConfig.from_json(args.config)
    params, multadds = count_params_flops(run.model)
    print(f"params={params}")
    print(f"mult_adds_per_image={multadds}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pvg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a JSON run config")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True, help="PVGT image tensor")
    p.add_argument("--labels", required=True, help="index,label CSV")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--batch-size", type=int, default=32)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("diag", help="write a per-block diversity trace CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--run-id", default="diag")
    p.set_defaults(fn=_cmd_diag)

    p = sub.add_parser("export-graph", help="export one block's neighbor edges as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--image", type=int, required=True)
    p.add_argument("--block", type=int, required=True)
    p.add_argument("--branch", choices=["first", "second"], default="first")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_export_graph)

    p = sub.add_parser("count", help="analytic parameter and mult-add counts")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_count)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # An overflow, a division by zero or a NaN would reach what the command
    # reports, so it ends the command as one line, not as numpy's warnings.
    # Underflow stays ignored: training expects subnormal gradients.
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.fn(args)
    except PvgError as e:
        print(f"error:{e.category}: {e}", file=sys.stderr)
        return 1
    except FloatingPointError as e:
        print(f"error:{NonFiniteError.category}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error:io: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
