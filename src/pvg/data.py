"""Dataset ingestion and the synthetic two-class corpus.

Datasets pair a rank-4 PVGT image tensor (N x h x w x 3, values in [0, 1])
with a ``index,label`` CSV. Validation is strict and each failure mode has
its own error type so callers can tell truncation from bad labels.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CountMismatchError, FileFormatError, LabelRangeError
from .net import IN_CHANNELS
from .pvgt import read_tensor, write_tensor

# The synthetic corpus: each image's contrast about mid-grey, and the standard
# deviation of its per-pixel noise.
CONTRAST = 0.5
NOISE = 0.08


@dataclass
class Dataset:
    images: np.ndarray  # [N, h, w, 3] float32 in [0, 1]
    labels: np.ndarray  # [N] int64 in [0, num_classes)
    num_classes: int
    split: str = "train"

    def __len__(self) -> int:
        return self.images.shape[0]


def load_dataset(
    images_path: str | Path,
    labels_path: str | Path,
    num_classes: int,
    split: str = "train",
) -> Dataset:
    images = read_tensor(images_path)
    if images.ndim != 4:
        raise FileFormatError(f"{images_path}: dataset tensor must be rank 4, got rank {images.ndim}")
    if images.shape[-1] != IN_CHANNELS:
        raise FileFormatError(
            f"{images_path}: expected {IN_CHANNELS} channels, got {images.shape[-1]}"
        )
    # Written so that a NaN, which compares False, fails it.
    if images.size and not (images.min() >= 0.0 and images.max() <= 1.0):
        raise FileFormatError(f"{images_path}: pixel values outside [0, 1] or NaN")

    labels = np.full(images.shape[0], -1, dtype=np.int64)
    seen = 0
    try:
        text = Path(labels_path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise FileFormatError(f"{labels_path}: not UTF-8 text: {e}") from None
    # newline="" hands the reader each line's own ending, as open(newline="") does.
    with io.StringIO(text, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["index", "label"]:
            raise FileFormatError(f"{labels_path}: expected 'index,label' header, got {header}")
        for row_no, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise FileFormatError(f"{labels_path}: row {row_no} is not 'index,label'")
            try:
                idx, label = int(row[0]), int(row[1])
            except ValueError:
                raise FileFormatError(
                    f"{labels_path}: row {row_no} has a non-integer cell: {row}"
                ) from None
            if not (0 <= label < num_classes):
                raise LabelRangeError(
                    f"{labels_path}: row {row_no} has label {label} outside [0, {num_classes})"
                )
            if not (0 <= idx < images.shape[0]):
                raise CountMismatchError(
                    f"{labels_path}: row {row_no} indexes image {idx} of {images.shape[0]}"
                )
            labels[idx] = label
            seen += 1
    if seen != images.shape[0] or np.any(labels < 0):
        raise CountMismatchError(
            f"{labels_path}: {seen} labels for {images.shape[0]} images"
        )
    return Dataset(images=images, labels=labels, num_classes=num_classes, split=split)


def save_dataset(images_path: str | Path, labels_path: str | Path, dataset: Dataset) -> None:
    write_tensor(images_path, dataset.images)
    with open(labels_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "label"])
        for i, label in enumerate(dataset.labels):
            writer.writerow([i, int(label)])


# ---------------------------------------------------------------------------
# synthetic two-class patch dataset
# ---------------------------------------------------------------------------


def make_two_class_patches(n_images: int = 512, size: int = 32, seed: int = 0) -> Dataset:
    """Two smooth class templates plus per-image noise, scaled into [0, 1].

    Class 0 brightens toward the top-left corner, class 1 toward the
    bottom-right, with distinct channel tints; the classes are linearly
    separable from coarse patch statistics by construction (see
    :func:`oracle_linear_accuracy`).
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.linspace(0, 1, size), np.linspace(0, 1, size), indexing="ij")
    ramp0 = 1.0 - 0.5 * (yy + xx)  # high at top-left
    ramp1 = 0.5 * (yy + xx)  # high at bottom-right
    tint0 = np.array([1.0, 0.6, 0.3])
    tint1 = np.array([0.3, 0.6, 1.0])
    t0 = ramp0[:, :, None] * tint0[None, None, :]
    t1 = ramp1[:, :, None] * tint1[None, None, :]

    labels = rng.integers(0, 2, size=n_images).astype(np.int64)
    images = np.empty((n_images, size, size, IN_CHANNELS), dtype=np.float32)
    for i, label in enumerate(labels):
        base = t1 if label else t0
        img = 0.5 + CONTRAST * (base - 0.5) + rng.normal(0.0, NOISE, size=base.shape)
        images[i] = np.clip(img, 0.0, 1.0)
    return Dataset(images=images, labels=labels, num_classes=2, split="train")


def oracle_linear_accuracy(dataset: Dataset) -> float:
    """Train accuracy of a least-squares linear classifier on the means of
    4x4 patches. Certifies that the corpus is shallow-learnable before anyone
    blames the deep model."""
    patch = 4
    imgs = dataset.images.astype(np.float64)
    n, h, w, c = imgs.shape
    gh, gw = h // patch, w // patch
    feats = imgs.reshape(n, gh, patch, gw, patch, c).mean(axis=(2, 4)).reshape(n, -1)
    feats = np.concatenate([feats, np.ones((n, 1))], axis=1)
    targets = 2.0 * dataset.labels - 1.0
    coef, *_ = np.linalg.lstsq(feats, targets, rcond=None)
    pred = (feats @ coef) > 0
    return float(np.mean(pred == (dataset.labels == 1)))
