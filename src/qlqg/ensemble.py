"""The ensemble plumbing both Monte Carlo simulators share.

A trajectory is named by ``(seed, index)``.  Trajectories 8b..8b+7 share
one SFC64 stream, seeded by ``SeedSequence(seed, spawn_key=(b,))``, and
trajectory i reads column i % 8 of it, so an ensemble is reproducible
and independent of batch layout.
:func:`_run_chunks` is the one chunk loop: it hands a simulator fixed
chunks of up to ``_CHUNK`` trajectories, each held in a multiple of
``_COLUMN_BLOCK`` columns, together with the chunk's noise walker.  Only
this module knows the noise layout: :func:`_noise_blocks`, the one
function from streams to steps, draws the chunk's standard normals a
window of ``_BLOCK`` steps at a time and hands the simulator its Wiener
increments a block of steps at a time, step-major and scaled by
sqrt(dt).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._readers import _of_kind
from .errors import ConfigError
from .riccati import TimeGrid

__all__ = ["SimConfig"]

#: trajectories per batch
_CHUNK = 1024
#: steps of noise each stream draws at a time; bounds a chunk's noise
#: buffer whatever ``n_steps`` is
_BLOCK = 256
#: a chunk has a multiple of this many columns: OpenBLAS rounds the
#: columns of a last, partial block of 8 apart from those of full blocks,
#: and a one-row or one-column product goes to GEMV.  It is also the
#: number of trajectories that share one noise stream
_COLUMN_BLOCK = 8


@dataclass(frozen=True)
class SimConfig:
    """Ensemble size, time grid, seeding and recording density."""

    grid: TimeGrid
    n_traj: int
    seed: int
    record_stride: int = 1

    def __post_init__(self) -> None:
        _of_kind(self.grid, TimeGrid, "grid")
        for name in ("n_traj", "seed", "record_stride"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.n_traj < 1:
            raise ConfigError(f"n_traj must be >= 1, got {self.n_traj}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        if self.record_stride < 1:
            raise ConfigError(f"record_stride must be >= 1, got {self.record_stride}")
        if self.grid.n_steps % self.record_stride != 0:
            raise ConfigError(
                f"record_stride {self.record_stride} does not divide "
                f"n_steps {self.grid.n_steps}"
            )

    @property
    def n_records(self) -> int:
        """Recorded points per trajectory, initial state included."""
        return self.grid.n_steps // self.record_stride + 1


def _at(config: SimConfig, index: int, step: int) -> str:
    """Where a failure happened, enough to replay it from (seed, index)."""
    return f"trajectory {index} of seed {config.seed} at {config.grid._where(step)}"


def _chunk_width(rows: int) -> int:
    """Columns of a chunk of ``rows`` trajectories: the next multiple of
    ``_COLUMN_BLOCK``."""
    return -(-rows // _COLUMN_BLOCK) * _COLUMN_BLOCK


#: constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
#: words in a SeedSequence pool
_POOL = 4


def _hasher(init: int, mult: int):
    """SeedSequence's hash with a running multiplier: each call of the
    returned function hashes uint32 values with the next constant."""
    const = init

    def hash_words(value):
        nonlocal const
        xor, const = np.uint32(const), const * mult & _MASK32
        value = (value ^ xor) * np.uint32(const)
        return value ^ (value >> 16)
    return hash_words


def _mix(x, y):
    """SeedSequence's mix of a hashed word ``y`` into a pool word ``x``."""
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    return r ^ (r >> 16)


def _stream_keys(seed: int, start: int, stop: int) -> NDArray[np.uint64]:
    """SFC64 seeds of the noise streams ``start..stop-1`` of ``seed``, one
    row each: row i is ``np.random.SeedSequence(seed, spawn_key=(start +
    i,)).generate_state(3, np.uint64)``, for every row at once.  Stream b
    is that of trajectories 8b..8b+7.

    It is numpy's SeedSequence hash in uint32 arithmetic.  The entropy
    is the seed's 32-bit words, padded to the pool size because a spawn
    key follows, then the index's words.  A seed below 2^64, as
    :class:`SimConfig` requires, fits the pool, so the pool and its
    mixing depend on the seed only and are computed once; each index
    word then mixes into every pool word, one round per word, and an
    index with fewer words leaves its pool as it is in the later rounds.
    The index has no upper bound.
    """
    rows = stop - start
    # the index words, least significant first, carried across 32 bits
    # so that indices of any size are exact
    index_words, rest, carry = [], start, np.arange(rows, dtype=np.uint64)
    while True:
        total = carry + np.uint64(rest & _MASK32)
        index_words.append((total & _MASK32).astype(np.uint32))
        carry, rest = total >> 32, rest >> 32
        if not rest and not carry.any():
            break
    # the word count of each index: 1 + the position of its top nonzero word
    n_words = np.ones(rows, dtype=np.intp)
    for j, w in enumerate(index_words[1:], start=2):
        n_words[w != 0] = j
    hashmix = _hasher(_INIT_A, _MULT_A)
    with np.errstate(over="ignore"):
        pool = [hashmix(np.uint32((seed >> 32 * i) & _MASK32)) for i in range(_POOL)]
        for src in range(_POOL):
            for dst in range(_POOL):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for j, w in enumerate(index_words):
            mixed = [_mix(p, hashmix(w)) for p in pool]
            pool = [np.where(n_words > j, q, p) for p, q in zip(pool, mixed)]
        # the state hasher walks the pool cyclically for its six words
        state = _hasher(_INIT_B, _MULT_B)
        words = [state(p).astype(np.uint64) for p in pool + pool[:2]]
    # the six state words read as three little-endian uint64
    return np.stack([lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])], axis=1)


@functools.cache
def _key_type() -> type:
    """The class of a precomputed SFC64 seed, one row of
    :func:`_stream_keys`, handed over as the seed sequence that would
    generate it.  Built on first use, so that a program that draws no
    noise does not import numpy.random."""

    class _Key(np.random.bit_generator.ISeedSequence):
        def __init__(self, key: NDArray[np.uint64]) -> None:
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key
    return _Key


def _noise_blocks(config: SimConfig, start: int, stop: int, d: int,
                  out: NDArray[np.float64], steps: int):
    """Walk the noise of trajectories ``start..stop-1`` up to ``steps``
    steps at a time: yield ``(s, w)`` once steps ``s..s+w-1`` sit in the
    first w d rows of ``out``.

    The one function from a chunk's streams to its steps.  ``out`` is a
    caller-owned (>= ``steps`` d, B) array, B = ``_chunk_width(stop -
    start)``: row j d + c is channel c of step s + j times sqrt(dt), one
    trajectory per column, valid until the next block.  Pad columns are
    zeroed once and stay zero.

    Trajectory i is column i % 8 of the stream of its tile b = i // 8,
    numpy's SFC64 seeded by ``SeedSequence(seed, spawn_key=(b,))``, which
    draws its tile's noise step-major, then by channel, then by column:
    trajectory i's increments are ``standard_normal((n_steps, d, 8))[:,
    :, i % 8]`` of that stream, times sqrt(dt).  The chunk's tiles
    ``start // 8 .. (stop - 1) // 8`` are keyed together by
    :func:`_stream_keys`, with no SeedSequence object per tile.  The
    streams stay alive and draw a window of up to ``_BLOCK`` steps at a
    time, each straight into its own (``_BLOCK``, d, 8) slab of one
    window.  Each stream is drawn in order, and numpy's
    ``standard_normal`` yields the same numbers however the draws of a
    stream are split, so the bytes are those of one bulk draw.  No block
    straddles two windows.  A block is scaled into a step-major staging
    array, tiles side by side, by one transposing multiply, and the
    chunk's columns, from ``start % 8`` on, are then copied into ``out``:
    aligned and unaligned chunks take the same path.
    """
    rows, n_steps = stop - start, config.grid.n_steps
    first_tile, lead = divmod(start, _COLUMN_BLOCK)
    n_tiles = (stop - 1) // _COLUMN_BLOCK - first_tile + 1
    sqrt_dt = math.sqrt(config.grid.dt)
    key = _key_type()
    streams = [np.random.Generator(np.random.SFC64(key(k)))
               for k in _stream_keys(config.seed, first_tile, first_tile + n_tiles)]
    window = np.empty((n_tiles, _BLOCK, d, _COLUMN_BLOCK))
    staging = np.empty((steps, d, n_tiles, _COLUMN_BLOCK))
    columns = staging.reshape(steps * d, n_tiles * _COLUMN_BLOCK)[:, lead:lead + rows]
    out[:, rows:] = 0.0
    for s in range(0, n_steps, _BLOCK):
        width = min(_BLOCK, n_steps - s)
        for stream, tile in zip(streams, window[:, :width]):
            stream.standard_normal(out=tile)
        for a in range(0, width, steps):
            w = min(steps, width - a)
            np.multiply(window[:, a:a + w].transpose(1, 2, 0, 3), sqrt_dt,
                        out=staging[:w])
            np.copyto(out[:w * d, :rows], columns[:w * d])
            yield s + a, w


def _run_chunks(config: SimConfig, d: int, run_chunk, first: int = 0) -> None:
    """Call ``run_chunk(start, stop, blocks)`` on fixed chunks, in index order.

    The one chunk loop of every Monte Carlo simulator.  Chunks of up to
    ``_CHUNK`` trajectories cover the indices ``first`` to
    ``first + n_traj - 1``; ``blocks(out, steps)`` is the chunk's
    :func:`_noise_blocks`, the walker that fills ``out`` with up to
    ``steps`` steps of its Wiener increments at a time, so no buffer
    grows with ``n_steps``.

    B = ``_chunk_width(stop - start)`` is the chunk's trajectory count
    rounded up to a multiple of ``_COLUMN_BLOCK``, and the pad rows'
    noise is zero.  A simulator holds its chunk in B columns, so every
    product rounds a trajectory alike in every chunk, and its results
    depend only on ``(seed, index)``: not on the chunk it lands in, and
    not on ``first``.  Any trajectory of an ensemble can be run alone.
    A simulator checks its states a block of steps at a time and raises
    a state past its limit, so numpy's overflow, invalid and divide
    warnings on the way there are off while a chunk runs.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(first, first + config.n_traj, _CHUNK):
            stop = min(start + _CHUNK, first + config.n_traj)
            run_chunk(start, stop,
                      functools.partial(_noise_blocks, config, start, stop, d))
