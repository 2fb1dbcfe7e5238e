#!/usr/bin/env python3
"""Train the tiny trident backbone end to end on the synthetic corpus.

Generates the two-class patch dataset, certifies it is shallow-learnable,
trains PVG-Tiny with AdamW under a warmup + cosine schedule, then reloads
the checkpoint and verifies the evaluation path reproduces training metrics.
Everything is seed-deterministic; rerunning reproduces metrics.csv byte for
byte. Takes about 12 seconds on two cores.
"""

from pathlib import Path

from pvg import (
    ModelConfig,
    OptimizerConfig,
    RunConfig,
    ScheduleConfig,
    count_params_flops,
    evaluate,
    load_dataset,
    make_two_class_patches,
    oracle_linear_accuracy,
    save_dataset,
)
from pvg.train import train

out = Path("demo_runs/tiny")
out.mkdir(parents=True, exist_ok=True)

print("=" * 64)
print("1. The corpus and its shallow oracle")
print("=" * 64)
ds = make_two_class_patches(n_images=512, size=32, seed=0)
save_dataset(out / "images.pvgt", out / "labels.csv", ds)
ds = load_dataset(out / "images.pvgt", out / "labels.csv", num_classes=2)
print(f"512 images, 32x32x3, labels balanced at {ds.labels.mean():.3f}")
print(f"least-squares oracle on patch means: {oracle_linear_accuracy(ds):.4f}")

print("\n" + "=" * 64)
print("2. The model")
print("=" * 64)
cfg = ModelConfig(num_classes=2)
params, multadds = count_params_flops(cfg)
print(f"PVG-Tiny: widths {cfg.stage_widths}, depths {cfg.stage_depths}, k {cfg.stage_k}")
print(f"{params:,} parameters, {multadds / 1e6:.1f}M mult-adds per image")

print("\n" + "=" * 64)
print("3. Training (early stop at 95% train accuracy)")
print("=" * 64)
steps_per_epoch = (len(ds) + 31) // 32
run = RunConfig(
    model=cfg,
    optimizer=OptimizerConfig(lr=1e-3, weight_decay=0.05),
    schedule=ScheduleConfig(warmup_steps=steps_per_epoch, total_steps=30 * steps_per_epoch),
    batch_size=32,
    seed=0,
    output_dir=str(out / "run"),
)
model, metrics = train(run, ds, stop_accuracy=0.95)
for m in metrics:
    print(f"epoch {m.epoch}: loss {m.train_loss:.4f}  acc {m.train_acc:.4f}  lr {m.lr:.2e}")

print("\n" + "=" * 64)
print("4. Checkpoint round trip")
print("=" * 64)
acc, loss = evaluate(out / "run" / "checkpoint", ds, batch_size=32)
print(f"reloaded checkpoint: acc {acc:.4f}, loss {loss:.4f}")
print(f"matches final train_acc: {acc == metrics[-1].train_acc}")
print(f"\nartifacts in {out / 'run'}: metrics.csv, diversity.csv, checkpoint/")
