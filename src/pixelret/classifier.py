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
hand it a WindowStack, which it reads one block of windows at a time.  It
classifies each distinct window of a group once, found by a fingerprint
and confirmed by comparing bits, and gives its class to every copy: equal
bits in give equal bits out, so no class changes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ArchError,
    ChecksumError,
    EmptyDataset,
    FormatError,
    ShapeError,
    check_int,
    check_real,
    check_seed,
)
from .grid import json_object, read_bytes, sha256_bytes
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
# Images that predict_batch deduplicates as one group.  A group holds only
# their fingerprints and indices, about 70 bytes an image; their bits are
# read a block at a time.  Copies lie rows apart in a raster, so a larger
# group finds more: on whole toy patterns, groups of 2,048, 16,384 and all
# pixels left iso60 0.70, 0.67 and 0.66 of the windows to classify, and
# ls140 0.31, 0.20 and 0.18.  Groups of 288 left 0.97-1.00.
GROUP_IMAGES = 16384


@dataclass
class ConvBlock:
    filters: int
    kernel: int = 3
    stride: int = 2
    activation: str = "relu"

    def __post_init__(self):
        for name in ("filters", "kernel", "stride"):
            check_int(name, getattr(self, name), least=1, error=ArchError)
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
            check_int(name, getattr(self, name), least=least, error=ArchError)
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
            input_side=d["input_side"],
            num_classes=d["num_classes"],
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
            check_int(name, getattr(self, name), least=1)
        check_real("learning_rate", self.learning_rate, least=0)
        self.seed = check_seed(self.seed)


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
        head = json.dumps(self.arch.to_dict(), sort_keys=True).encode()
        return sha256_bytes(head + _payload(self))


def _payload(m: ModelParams) -> bytes:
    """The model's weights as stored: little-endian float32 tensors in
    manifest order."""
    return b"".join(m.weights[n].astype("<f4").tobytes() for n in m.tensor_names())


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
    seed = check_seed(seed)
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
    patches at stride s, rows in weight order, one column per position.
    Each tap is one strided copy of a (c, oh, ow, n) slab of x."""
    c, h, w, n = x.shape
    oh, ow = (h - k) // s + 1, (w - k) // s + 1
    cols = np.empty((c, k, k, oh, ow, n), dtype=x.dtype)
    for ky in range(k):
        for kx in range(k):
            cols[:, ky, kx] = x[:, ky : ky + s * (oh - 1) + 1 : s, kx : kx + s * (ow - 1) + 1 : s]
    return cols.reshape(c * k * k, oh * ow * n), oh, ow


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


def _probe(size: int) -> np.ndarray:
    """The fixed vector whose dot product with a flattened image is its
    fingerprint."""
    return np.random.Generator(np.random.PCG64(0)).random(size, dtype=np.float32)


def _distinct(images: WindowStack, fp: np.ndarray, step: int) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) over images whose fingerprints are fp: the ascending
    indices of one image of each distinct float32 bit pattern, and each
    image's index into first.

    Images are sorted by fingerprint.  An image joins the first image of
    its fingerprint's run only if their bits are equal, so a fingerprint
    collision costs a classification, never a wrong class, as does a copy
    whose fingerprint BLAS rounds differently.  The bits are read and
    compared step pairs at a time.
    """
    k = len(fp)
    order = np.argsort(fp, kind="stable")
    fp = fp[order]
    starts = np.flatnonzero(np.r_[True, fp[1:] != fp[:-1]])
    leader = order[np.repeat(starts, np.diff(np.r_[starts, k]))]
    copies = order.copy()  # per sorted image: the image it is a copy of
    pairs = np.flatnonzero(leader != order)
    for s in range(0, len(pairs), step):
        j = pairs[s : s + step]
        a, b = images[order[j]].view(np.uint32), images[leader[j]].view(np.uint32)
        j = j[(a == b).reshape(len(j), -1).all(axis=1)]
        copies[j] = leader[j]
    rep = np.empty(k, dtype=np.intp)
    rep[order] = copies
    first = np.flatnonzero(rep == np.arange(k))
    return first, np.searchsorted(first, rep)


def predict_batch(m: ModelParams, images: np.ndarray | WindowStack) -> np.ndarray:
    """Argmax class per image; ties resolve to the lower class index.

    Classifies each distinct image of a group of GROUP_IMAGES once: equal
    bits in give equal bits out.  The distinct images, in order of first
    appearance, run through _forward in blocks of exactly inference_block
    images, the last one zero-padded, so every image goes through the same
    GEMM call shapes and its class depends neither on its batch nor on
    which copy of it ran.  A group's images are read a block at a time, to
    be fingerprinted, compared and classified, so the whole image stack is
    never held.  This is the one loop that cuts inference blocks.
    """
    shape = np.shape(images)  # a WindowStack's, without reading its windows
    if len(shape) != 3 or shape[1] != shape[2] or shape[1] != m.arch.input_side:
        raise ShapeError(f"images {shape} incompatible with model")
    images = WindowStack.of_array(images)
    n, block, size = shape[0], inference_block(m.arch), shape[1] * shape[2]
    probe = _probe(size)
    ids = np.empty(n, dtype=np.intp)  # each image's number among the distinct ones
    classes = np.empty(n, dtype=np.int64)  # per distinct image
    buf = np.zeros((block, *shape[1:]), dtype=np.float32)
    done = fill = 0  # distinct images classified, and waiting in buf
    for start in range(0, n, GROUP_IMAGES):
        group = images.take(np.arange(start, min(n, start + GROUP_IMAGES)))
        fp = np.concatenate([
            group[s : s + block].reshape(-1, size) @ probe for s in range(0, len(group), block)
        ])
        first, inverse = _distinct(group, fp, block)
        ids[start : start + len(group)] = done + fill + inverse
        while len(first):
            take, first = first[: block - fill], first[block - fill :]
            buf[fill : fill + len(take)] = group[take]
            fill += len(take)
            if fill == block:
                classes[done : done + block] = np.argmax(_forward(m, buf), axis=1)
                done, fill = done + block, 0
    if fill:
        buf[fill:] = 0
        classes[done : done + fill] = np.argmax(_forward(m, buf)[:fill], axis=1)
    return classes[ids]


def _col2im(dcols: np.ndarray, xshape: tuple, k: int, s: int, oh: int, ow: int) -> np.ndarray:
    """Scatter-add _im2col-shaped patch gradients back onto the
    (c, h, w, n) input they were taken from.

    Tap (ky, kx) lands on phase plane x[:, p::s, q::s] with p = ky % s,
    q = kx % s, as one contiguous (oh, ow) block of it; each plane sums
    its taps in (ky, kx) order, as a scatter into x would, and the planes
    are then interleaved into x once."""
    c, h, w, n = xshape
    dc = dcols.reshape(c, k, k, oh, ow, n)
    dx = np.empty(xshape, dtype=dcols.dtype)
    for p in range(s):
        for q in range(s):
            plane = np.zeros((c, len(range(p, h, s)), len(range(q, w, s)), n), dcols.dtype)
            for ky in range(p, k, s):
                for kx in range(q, k, s):
                    plane[:, ky // s : ky // s + oh, kx // s : kx // s + ow] += dc[:, ky, kx]
            dx[:, p::s, q::s] = plane
    return dx


def backward(m: ModelParams, batch: tuple[np.ndarray, np.ndarray]):
    """Mean cross-entropy loss and its gradients for (images, labels).

    Runs _forward over the whole batch, so each conv layer's forward,
    weight gradient and patch gradient is one 2-D product over every
    sample's patches; _im2col and _col2im move one slab of the batch per
    kernel tap.
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
    payload = _payload(m)
    header = {
        "format": "pixel-correction-model",
        "version": MODEL_FORMAT_VERSION,
        "arch": m.arch.to_dict(),
        "seed": m.seed,
        "train_meta": m.train_meta,
        "tensors": [[n, list(m.weights[n].shape)] for n in m.tensor_names()],
        "payload_sha256": sha256_bytes(payload),
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        f.write(payload)


def load_model(path: str | Path) -> ModelParams:
    data = read_bytes(path, "model file")
    nl = data.find(b"\n")
    if nl < 0:
        raise FormatError(f"{path}: missing model header")
    header = json_object(data[:nl], f"model header of {path}")
    if header.get("format") != "pixel-correction-model":
        raise FormatError(f"{path}: not a model file")
    if header.get("version") != MODEL_FORMAT_VERSION:
        raise FormatError(
            f"{path}: model format version {header.get('version')} "
            f"(supported: {MODEL_FORMAT_VERSION})"
        )
    missing = [k for k in ("arch", "seed", "tensors", "payload_sha256") if k not in header]
    if missing:
        raise FormatError(f"{path}: model header lacks {', '.join(missing)}")
    check_int(f"{path}: seed", header["seed"], least=0, error=FormatError)
    train_meta = header.get("train_meta", {})
    if not isinstance(train_meta, dict):
        raise FormatError(f"{path}: train_meta must be an object, got {train_meta!r}")
    try:
        arch = ArchDescriptor.from_dict(header["arch"])
    except (ArchError, KeyError, TypeError, ValueError) as e:
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
        seed=header["seed"],
        train_meta=train_meta,
    )
