"""Phantom generation, PGM image I/O, quality metrics, and metrics CSV."""

import csv
from dataclasses import dataclass

import numpy as np

from .exceptions import (DimensionError, DomainError, ImageFormatError, check_block_side,
                         check_choice, check_count, check_fraction, check_grid)

PHANTOM_KINDS = ("shot_noise", "group_sparse")

METRICS_COLUMNS = (
    "experiment",
    "side",
    "m_over_n",
    "seed",
    "psnr_a_db",
    "psnr_b_db",
    "iters",
    "wall_ms",
    "solver",
)


@dataclass(frozen=True)
class PhantomSpec:
    kind: str
    side: int = 64
    sparsity: float = 0.05
    block_side: int = 4
    active_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self):
        check_choice("kind", self.kind, PHANTOM_KINDS)
        check_count("side", self.side, 2, DimensionError)
        check_count("seed", self.seed, 0)
        if self.kind == "shot_noise":
            check_fraction("sparsity", self.sparsity, strict=True)
        if self.kind == "group_sparse":
            check_count("block_side", self.block_side, 1, DimensionError)
            check_fraction("active_fraction", self.active_fraction, strict=False)


def gen_shot_noise(spec, forbidden=None):
    """Sparse +-1 impulses: exactly round(sparsity * N) nonzeros, uniform positions.

    ``forbidden`` optionally excludes a boolean region (used by the
    disjoint-support mixture mode).
    """
    check_choice("spec.kind", spec.kind, ("shot_noise",))
    rng = np.random.default_rng(spec.seed)
    n = spec.side * spec.side
    k = int(round(spec.sparsity * n))
    out = np.zeros(n)
    if k == 0:
        return out.reshape(spec.side, spec.side)
    if forbidden is None:
        candidates = np.arange(n)
    else:
        candidates = np.flatnonzero(~np.asarray(forbidden, dtype=bool).ravel())
    if k > candidates.size:
        raise DomainError(f"not enough admissible positions for the requested sparsity: "
                          f"{candidates.size} admissible, {k} impulses requested")
    pos = rng.choice(candidates, size=k, replace=False)
    out[pos] = rng.choice((-1.0, 1.0), size=k)
    return out.reshape(spec.side, spec.side)


def gen_group_sparse(spec):
    """QR-like binary tiling: each tile is all ones or all zeros."""
    check_choice("spec.kind", spec.kind, ("group_sparse",))
    check_block_side(spec.side, spec.block_side)
    rng = np.random.default_rng(spec.seed)
    nb = spec.side // spec.block_side
    n_tiles = nb * nb
    k = int(round(spec.active_fraction * n_tiles))
    tiles = np.zeros(n_tiles)
    if k > 0:
        tiles[rng.choice(n_tiles, size=k, replace=False)] = 1.0
    return np.kron(tiles.reshape(nb, nb), np.ones((spec.block_side, spec.block_side)))


def gen_cartoon(side, seed=0):
    """Piecewise-constant scene in [0, 1]: a natural-image stand-in whose
    finite differences are sparse."""
    check_count("side", side, 2, DimensionError)
    check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.linspace(0, 1, side), np.linspace(0, 1, side), indexing="ij")
    img = np.where(yy < 0.55, 0.35, 0.55)  # flat sky over flat ground
    for _ in range(4):
        cx, cy = rng.uniform(0.15, 0.85, size=2)
        rad = rng.uniform(0.08, 0.25)
        img = np.where((xx - cx) ** 2 + (yy - cy) ** 2 < rad * rad, rng.uniform(0.2, 1.0), img)
    for _ in range(3):
        x0, y0 = rng.uniform(0.0, 0.7, size=2)
        w, h = rng.uniform(0.1, 0.3, size=2)
        img = np.where((xx >= x0) & (xx <= x0 + w) & (yy >= y0) & (yy <= y0 + h),
                       rng.uniform(0.0, 1.0), img)
    return np.clip(img, 0.0, 1.0)


def make_mixture(spec_a, spec_b, disjoint=False):
    """Ground-truth pair (xa, xb); supports overlap unless disjoint is set."""
    xb = gen_group_sparse(spec_b)
    forbidden = xb != 0 if disjoint else None
    xa = gen_shot_noise(spec_a, forbidden=forbidden)
    return xa, xb


def load_image_pgm(path):
    """Read a square P2 or P5 PGM with maxval 255, scaled to [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()

    def tokens(buf):
        i = 0
        while i < len(buf):
            c = buf[i : i + 1]
            if c == b"#":
                while i < len(buf) and buf[i : i + 1] != b"\n":
                    i += 1
            elif c.isspace():
                i += 1
            else:
                j = i
                while j < len(buf) and not buf[j : j + 1].isspace() and buf[j : j + 1] != b"#":
                    j += 1
                yield buf[i:j], j
                i = j

    try:
        tok = tokens(data)
        magic, _ = next(tok)
        if magic not in (b"P2", b"P5"):
            raise ImageFormatError(f"not a PGM file: magic {magic!r}")
        (w_tok, _), (h_tok, _), (maxval_tok, end) = next(tok), next(tok), next(tok)
        width, height, maxval = int(w_tok), int(h_tok), int(maxval_tok)
    except (StopIteration, ValueError) as err:
        raise ImageFormatError("malformed PGM header") from err
    if width != height:
        raise ImageFormatError(f"image must be square, got {width}x{height}")
    if maxval != 255:
        raise ImageFormatError(f"maxval must be 255, got {maxval}")
    if magic == b"P5":
        raw = data[end + 1 : end + 1 + width * height]
        if len(raw) != width * height:
            raise ImageFormatError("truncated P5 pixel data")
        pixels = np.frombuffer(raw, dtype=np.uint8).astype(float)
    else:
        values = data[end:].split()
        if len(values) != width * height:
            raise ImageFormatError("wrong P2 pixel count")
        try:
            pixels = np.array([int(v) for v in values], dtype=float)
        except ValueError as err:
            raise ImageFormatError("non-integer P2 pixel") from err
        if pixels.min() < 0 or pixels.max() > 255:
            raise ImageFormatError("P2 pixel out of range")
    return (pixels / 255.0).reshape(height, width)


def save_image_pgm(grid, path):
    """Write a grid as binary P5: clamp to [0, 1], scale to 255, round."""
    grid = check_grid(grid)
    pixels = np.rint(np.clip(grid, 0.0, 1.0) * 255.0).astype(np.uint8)
    side = grid.shape[0]
    with open(path, "wb") as fh:
        fh.write(f"P5\n{side} {side}\n255\n".encode())
        fh.write(pixels.tobytes())


def psnr(reference, estimate):
    """10 log10(peak^2 / MSE) with peak = max|reference|; inf when MSE = 0."""
    reference = np.asarray(reference, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if reference.shape != estimate.shape:
        raise DimensionError(
            f"shape mismatch: {reference.shape} vs {estimate.shape}"
        )
    mse = float(np.mean((reference - estimate) ** 2))
    if mse == 0.0:
        return float("inf")
    peak = float(np.abs(reference).max())
    if peak == 0.0:
        raise DomainError("reference grid is identically zero")
    return 10.0 * np.log10(peak * peak / mse)


def write_metrics_csv(path, rows):
    """Write metric rows under the canonical header, in the given order."""
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=METRICS_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: row[key] for key in METRICS_COLUMNS})
