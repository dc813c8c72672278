"""Convolutional classifier over IIP classes, implemented directly on numpy.

Stack: repeated valid-padding conv blocks (3x3 kernels, stride-2 default,
ReLU) feeding a global average pool and a dense softmax head.  Weights and
activations are float32; softmax and loss run in float64.  Everything is
seeded and single-threaded over the batch sequence, so training twice with
one seed reproduces history and weights bitwise.

Training and inference share one forward, which runs each conv layer over
the whole batch as one GEMM (a training step's weight and patch gradients
are one GEMM each too).  A product over many samples may sum in an order
that depends on how many there are, and a deployed pixel's class must not
depend on its batch, chunk or worker count; so inference runs blocks of
exactly inference_block images, the last one zero-padded.  At those fixed
call shapes every image's logits come out bitwise the same whatever its
slot in the block and whatever images share it (the tests check this).
predict_batch is the one place that cuts blocks; validation and deployment
hand it a WindowStack, and it reads one block of windows at a time.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ArchError,
    ChecksumError,
    EmptyDataset,
    FormatError,
    ParamError,
    ShapeError,
)
from .grid import sha256_bytes
from .tiling import PROVENANCE_KEYS, PixelDataset, WindowStack

MODEL_FORMAT_VERSION = 1
MOMENTUM = 0.9
# Float32 layer data, and images, one inference block may hold; the block's
# image count follows from the architecture (inference_block).  Measured on
# a 2-CPU host: the toy arch runs at about the same cost per image from 24
# to 98 images per block, and pays for padding beyond that; the default
# arch runs best at one image per block (2 to 4 images copy patches in runs
# too short).  Every chunk pads its last block, so a tiny arch is held to
# BLOCK_IMAGES: thousands of images per block would leave 4 workers only
# three blocks of work on a 10^4-pixel map.
BLOCK_BYTES = 3 << 19
BLOCK_IMAGES = 128


@dataclass
class ConvBlock:
    filters: int
    kernel: int = 3
    stride: int = 2
    activation: str = "relu"

    def __post_init__(self):
        for name in ("filters", "kernel", "stride"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ArchError(f"{name} must be an integer >= 1, got {value!r}")
        if self.kernel % 2 != 1:
            raise ArchError(f"kernel must be odd, got {self.kernel}")
        if self.activation != "relu":
            raise ArchError(f"unsupported activation {self.activation!r}")


@dataclass
class ArchDescriptor:
    input_side: int
    num_classes: int
    conv_blocks: list[ConvBlock]
    pool: str = "global_average"

    def __post_init__(self):
        if not self.conv_blocks:
            raise ArchError("at least one conv block is required")
        for name, least in (("input_side", 1), ("num_classes", 2)):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ArchError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.pool != "global_average":
            raise ArchError(f"unsupported pool {self.pool!r}")
        self.feature_sides = [self.input_side]
        for i, b in enumerate(self.conv_blocks):
            side = self.feature_sides[-1]
            if side < b.kernel:
                raise ArchError(
                    f"block {i}: spatial size {side} smaller than kernel {b.kernel}"
                )
            self.feature_sides.append((side - b.kernel) // b.stride + 1)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ArchDescriptor":
        return ArchDescriptor(
            input_side=int(d["input_side"]),
            num_classes=int(d["num_classes"]),
            conv_blocks=[ConvBlock(**b) for b in d["conv_blocks"]],
            pool=d.get("pool", "global_average"),
        )


@dataclass
class TrainConfig:
    epochs: int = 15
    batch_size: int = 32
    learning_rate: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ParamError(f"{name} must be an integer >= 1, got {value!r}")
        # Written so that NaN fails each comparison.
        if not 0 <= self.learning_rate < float("inf"):
            raise ParamError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")


@dataclass
class ModelParams:
    arch: ArchDescriptor
    weights: dict[str, np.ndarray] = field(repr=False)
    seed: int
    train_meta: dict = field(default_factory=dict)

    def tensor_names(self) -> list[str]:
        return list(_tensor_shapes(self.arch))

    def copy(self) -> "ModelParams":
        return ModelParams(
            arch=self.arch,
            weights={k: v.copy() for k, v in self.weights.items()},
            seed=self.seed,
            train_meta=dict(self.train_meta),
        )

    def checksum(self) -> str:
        h = json.dumps(self.arch.to_dict(), sort_keys=True).encode()
        for name in self.tensor_names():
            h += self.weights[name].astype("<f4").tobytes()
        return sha256_bytes(h)


def _tensor_shapes(arch: ArchDescriptor) -> dict[str, tuple[int, ...]]:
    """Name and shape of each weight tensor, in the model file's order."""
    shapes: dict[str, tuple[int, ...]] = {}
    cin = 1
    for i, b in enumerate(arch.conv_blocks):
        shapes[f"conv{i}_w"] = (b.filters, cin, b.kernel, b.kernel)
        shapes[f"conv{i}_b"] = (b.filters,)
        cin = b.filters
    shapes["dense_w"] = (arch.num_classes, cin)
    shapes["dense_b"] = (arch.num_classes,)
    return shapes


def init_model(arch: ArchDescriptor, seed: int) -> ModelParams:
    """Seeded uniform fan-in initialization; biases start at zero."""
    rng = np.random.Generator(np.random.PCG64(seed))
    weights: dict[str, np.ndarray] = {}
    for name, shape in _tensor_shapes(arch).items():
        if len(shape) == 1:
            weights[name] = np.zeros(shape, dtype=np.float32)
        else:
            bound = float(np.sqrt(1.0 / int(np.prod(shape[1:]))))
            weights[name] = rng.uniform(-bound, bound, shape).astype(np.float32)
    return ModelParams(arch=arch, weights=weights, seed=seed)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def _im2col(x: np.ndarray, k: int, s: int) -> tuple[np.ndarray, int, int]:
    """(c, h, w, n) -> the (c*k*k, oh*ow*n) matrix of every sample's k x k
    patches at stride s, rows in weight order, one column per position."""
    v = sliding_window_view(x, (k, k), axis=(1, 2))[:, ::s, ::s]
    c, oh, ow, n = v.shape[:4]
    return v.transpose(0, 4, 5, 1, 2, 3).reshape(c * k * k, oh * ow * n), oh, ow


def _forward(m: ModelParams, images: np.ndarray, cache: list | None = None) -> np.ndarray:
    """images: (n, side, side) float32 -> logits (n, classes) float32.

    Runs in a channel-major, batch-last (c, h, w, n) layout: each conv
    layer is one 2-D product over every sample's patches, then bias and
    ReLU in place.  A cache list receives, per conv layer, (input shape,
    im2col columns, activation, oh, ow) and then the pooled features.
    """
    n = images.shape[0]
    x = images.transpose(1, 2, 0)[None]
    for i, b in enumerate(m.arch.conv_blocks):
        cols, oh, ow = _im2col(x, b.kernel, b.stride)
        a = m.weights[f"conv{i}_w"].reshape(b.filters, -1) @ cols
        a += m.weights[f"conv{i}_b"][:, None]
        np.maximum(a, 0.0, out=a)
        if cache is not None:
            cache.append((x.shape, cols, a, oh, ow))
        x = a.reshape(b.filters, oh, ow, n)
    gap = x.reshape(x.shape[0], -1, n).mean(axis=1).T
    if cache is not None:
        cache.append(gap)
    return gap @ m.weights["dense_w"].T + m.weights["dense_b"]


def _softmax64(logits: np.ndarray) -> np.ndarray:
    z = logits.astype(np.float64)
    z -= z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def predict(m: ModelParams, image: np.ndarray) -> int:
    """Argmax class of one image; ties resolve to the lower class index.
    One image costs one zero-padded inference block.
    """
    return int(predict_batch(m, np.asarray(image)[None])[0])


def inference_block(arch: ArchDescriptor) -> int:
    """Images per inference block: as many as keep the largest conv layer's
    batch-last working set (im2col columns and activation, float32) within
    BLOCK_BYTES, at most BLOCK_IMAGES and at least one.
    """
    cin, largest = 1, 0
    for b, side in zip(arch.conv_blocks, arch.feature_sides[1:]):
        largest = max(largest, 4 * side * side * (cin * b.kernel * b.kernel + b.filters))
        cin = b.filters
    return max(1, min(BLOCK_IMAGES, BLOCK_BYTES // largest))


def predict_batch(m: ModelParams, images: np.ndarray | WindowStack) -> np.ndarray:
    """Argmax class per image; ties resolve to the lower class index.

    Images run through _forward in blocks of exactly inference_block
    images, the last one zero-padded, so every image goes through the same
    GEMM call shapes and its class does not depend on its batch.  This is
    the one loop that cuts inference blocks: it reads one block of a
    WindowStack at a time, so the whole image stack is never held.
    """
    if not isinstance(images, WindowStack):
        images = np.asarray(images)
    shape = images.shape
    if len(shape) != 3 or shape[1] != shape[2] or shape[1] != m.arch.input_side:
        raise ShapeError(f"images {shape} incompatible with model")
    n, block = shape[0], inference_block(m.arch)
    out = np.empty(n, dtype=np.int64)
    for start in range(0, n, block):
        part = np.asarray(images[start : start + block], dtype=np.float32)
        if len(part) < block:
            part = np.pad(part, ((0, block - len(part)), (0, 0), (0, 0)))
        out[start : start + block] = np.argmax(_forward(m, part)[: n - start], axis=1)
    return out


def _col2im(dcols: np.ndarray, xshape: tuple, k: int, s: int, oh: int, ow: int) -> np.ndarray:
    """Scatter-add _im2col-shaped patch gradients back onto the
    (c, h, w, n) input they were taken from."""
    dx = np.zeros(xshape, dtype=dcols.dtype)
    dc = dcols.reshape(xshape[0], k, k, oh, ow, xshape[3])
    for ky in range(k):
        for kx in range(k):
            dx[:, ky : ky + s * oh : s, kx : kx + s * ow : s] += dc[:, ky, kx]
    return dx


def backward(m: ModelParams, batch: tuple[np.ndarray, np.ndarray]):
    """Mean cross-entropy loss and its gradients for (images, labels).

    Runs _forward over the whole batch, so each conv layer's forward,
    weight gradient and patch gradient is one 2-D product over every
    sample's patches, and every patch copy and scatter moves runs of n
    values.
    """
    images, labels = batch
    images = np.asarray(images, dtype=np.float32)
    labels = np.asarray(labels)
    if images.ndim != 3 or images.shape[0] == 0:
        raise ShapeError("batch images must be a nonempty (n, side, side) array")
    if images.shape[1] != m.arch.input_side or images.shape[2] != m.arch.input_side:
        raise ShapeError(f"batch images {images.shape} incompatible with model")
    if (
        labels.shape != (images.shape[0],)
        or not np.issubdtype(labels.dtype, np.integer)
        or labels.min() < 0
        or labels.max() >= m.arch.num_classes
    ):
        raise ShapeError("labels must be per-sample integer class ids in [0, num_classes)")

    n = images.shape[0]
    cache: list = []
    probs = _softmax64(_forward(m, images, cache))
    *layers, gap = cache
    picked = probs[np.arange(n), labels]
    loss = float(-np.mean(np.log(np.maximum(picked, 1e-300))))
    dlogits = probs
    dlogits[np.arange(n), labels] -= 1.0
    dlogits = (dlogits / n).astype(np.float32)

    grads: dict[str, np.ndarray] = {
        "dense_w": dlogits.T @ gap,
        "dense_b": dlogits.sum(axis=0),
    }
    dgap = dlogits @ m.weights["dense_w"]
    _, _, a, oh, ow = layers[-1]
    dx = np.broadcast_to((dgap.T / (oh * ow))[:, None, :], (a.shape[0], oh * ow, n))
    for i in range(len(layers) - 1, -1, -1):
        b = m.arch.conv_blocks[i]
        xshape, cols, a, oh, ow = layers[i]
        # a > 0 exactly where the pre-activation is > 0.
        dz = dx.reshape(a.shape) * (a > 0.0)
        grads[f"conv{i}_b"] = dz.sum(axis=1)
        grads[f"conv{i}_w"] = (dz @ cols.T).reshape(m.weights[f"conv{i}_w"].shape)
        if i:  # nothing reads the input image's gradient
            w2 = m.weights[f"conv{i}_w"].reshape(b.filters, -1)
            dx = _col2im(w2.T @ dz, xshape, b.kernel, b.stride, oh, ow)
    return loss, grads


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train(
    m: ModelParams, d: PixelDataset, cfg: TrainConfig
) -> tuple[ModelParams, dict]:
    """SGD with momentum over the train split; history carries per-epoch
    train loss and val accuracy; the best-val-accuracy weights are returned
    (ties go to the earlier epoch).  Each batch and validation block is read
    from the dataset when it runs.
    """
    if d.num_classes != m.arch.num_classes:
        raise ShapeError(
            f"dataset has {d.num_classes} classes, model {m.arch.num_classes}"
        )
    if d.image_side != m.arch.input_side:
        raise ShapeError(
            f"dataset images {d.image_side}px, model input {m.arch.input_side}px"
        )
    train_idx = d.split_indices("train")
    val_idx = d.split_indices("val")
    if train_idx.size == 0:
        raise EmptyDataset("train split is empty")
    if val_idx.size == 0:
        raise EmptyDataset("val split is empty")

    y_train = d.labels[train_idx]
    y_val = d.labels[val_idx]

    cur = m.copy()
    velocity = {k: np.zeros_like(v) for k, v in cur.weights.items()}
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    lr = np.float32(cfg.learning_rate)
    mu = np.float32(MOMENTUM)

    history: dict = {"train_loss": [], "val_accuracy": []}
    best_acc = -1.0
    best_weights = {k: v.copy() for k, v in cur.weights.items()}
    best_epoch = -1
    for epoch in range(cfg.epochs):
        order = rng.permutation(train_idx.size)
        losses = []
        for start in range(0, order.size, cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            loss, grads = backward(cur, (d.images[train_idx[sel]], y_train[sel]))
            losses.append(loss)
            for k in cur.weights:
                velocity[k] = mu * velocity[k] - lr * grads[k]
                cur.weights[k] = cur.weights[k] + velocity[k]
        acc = float(np.mean(predict_batch(cur, d.images.take(val_idx)) == y_val))
        history["train_loss"].append(float(np.mean(losses)))
        history["val_accuracy"].append(acc)
        if acc > best_acc:
            best_acc = acc
            best_weights = {k: v.copy() for k, v in cur.weights.items()}
            best_epoch = epoch
    train_meta = {
        "epochs": cfg.epochs,
        "lr": cfg.learning_rate,
        "best_epoch": best_epoch,
        "final_val_accuracy": best_acc,
    }
    # Carry the window geometry the model was trained on, so deployment can
    # detect a mismatched tiling config instead of silently degrading.
    for key in PROVENANCE_KEYS:
        if key in d.meta:
            train_meta[key] = d.meta[key]
    out = ModelParams(
        arch=m.arch,
        weights=best_weights,
        seed=m.seed,
        train_meta=train_meta,
    )
    return out, history


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_model(m: ModelParams, path: str | Path) -> None:
    """One JSON header line (arch, seed, tensor manifest, payload digest)
    followed by the raw little-endian float32 tensors in manifest order.
    """
    names = m.tensor_names()
    payload = b"".join(m.weights[n].astype("<f4").tobytes() for n in names)
    header = {
        "format": "pixel-correction-model",
        "version": MODEL_FORMAT_VERSION,
        "arch": m.arch.to_dict(),
        "seed": m.seed,
        "train_meta": m.train_meta,
        "tensors": [[n, list(m.weights[n].shape)] for n in names],
        "payload_sha256": sha256_bytes(payload),
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        f.write(payload)


def load_model(path: str | Path) -> ModelParams:
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise FormatError(f"cannot read model file {path}: {e}") from None
    nl = data.find(b"\n")
    if nl < 0:
        raise FormatError(f"{path}: missing model header")
    try:
        header = json.loads(data[:nl].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"{path}: bad model header: {e}") from None
    if not isinstance(header, dict) or header.get("format") != "pixel-correction-model":
        raise FormatError(f"{path}: not a model file")
    if header.get("version") != MODEL_FORMAT_VERSION:
        raise FormatError(
            f"{path}: model format version {header.get('version')} "
            f"(supported: {MODEL_FORMAT_VERSION})"
        )
    missing = [k for k in ("arch", "seed", "tensors", "payload_sha256") if k not in header]
    if missing:
        raise FormatError(f"{path}: model header lacks {', '.join(missing)}")
    try:
        arch = ArchDescriptor.from_dict(header["arch"])
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"{path}: malformed arch in model header: {e!r}") from None
    shapes = _tensor_shapes(arch)
    manifest = [[name, list(shape)] for name, shape in shapes.items()]
    if header["tensors"] != manifest:
        raise FormatError(
            f"{path}: tensor manifest {header['tensors']} does not match the arch's {manifest}"
        )
    payload = data[nl + 1 :]
    expected = 4 * sum(int(np.prod(shape)) for shape in shapes.values())
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, manifest needs {expected}"
        )
    if sha256_bytes(payload) != header["payload_sha256"]:
        raise ChecksumError(f"{path}: payload checksum mismatch")
    weights = {}
    offset = 0
    for name, shape in shapes.items():
        count = int(np.prod(shape))
        arr = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
        weights[name] = arr.reshape(shape).astype(np.float32)
        offset += count * 4
    return ModelParams(
        arch=arch,
        weights=weights,
        seed=int(header["seed"]),
        train_meta=header.get("train_meta", {}),
    )
