"""Causal multi-head self-attention with a contiguous KV cache (inference path)."""

from __future__ import annotations

import zlib
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import KVCorruptionError
from repro.nn.rope import RotaryEmbedding, apply_rope
from repro.utils.mathx import softmax

__all__ = ["KVCache", "CausalSelfAttention"]


class KVCache:
    """Per-layer key/value cache with geometrically grown contiguous storage.

    Shapes: keys/values are ``[n_kv_heads, T, head_dim]`` per layer.  The cache
    supports appending one or more steps at a time and exposes read-only views
    of the filled prefix, mirroring how inference engines grow the cache one
    token per decode step.  Storage starts at ``initial_tokens`` capacity and
    doubles on demand up to ``max_tokens`` — appends stay amortised O(1)
    without paying the full ``max_tokens`` allocation for short sequences.
    """

    def __init__(
        self,
        n_layers: int,
        n_kv_heads: int,
        head_dim: int,
        max_tokens: int,
        initial_tokens: int = 64,
    ):
        if max_tokens <= 0:
            raise ValueError("max_tokens must be positive")
        if initial_tokens <= 0:
            raise ValueError("initial_tokens must be positive")
        self.n_layers = n_layers
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        self.max_tokens = max_tokens
        self._initial = min(max_tokens, initial_tokens)
        self._capacity = self._initial
        self._k = np.zeros((n_layers, n_kv_heads, self._capacity, head_dim))
        self._v = np.zeros((n_layers, n_kv_heads, self._capacity, head_dim))
        self._lengths = np.zeros(n_layers, dtype=np.int64)

    @property
    def capacity(self) -> int:
        """Tokens the current allocation can hold before the next growth."""
        return self._capacity

    def length(self, layer: int) -> int:
        return int(self._lengths[layer])

    def _ensure_capacity(self, needed: int) -> None:
        if needed <= self._capacity:
            return
        capacity = self._capacity
        while capacity < needed:
            capacity *= 2
        capacity = min(capacity, self.max_tokens)
        grown_k = np.zeros((self.n_layers, self.n_kv_heads, capacity, self.head_dim))
        grown_v = np.zeros_like(grown_k)
        grown_k[:, :, : self._capacity] = self._k
        grown_v[:, :, : self._capacity] = self._v
        self._k, self._v, self._capacity = grown_k, grown_v, capacity

    def append(self, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        """Append ``[n_kv_heads, t, head_dim]`` keys/values for ``layer``."""
        t = k.shape[1]
        start = self.length(layer)
        if start + t > self.max_tokens:
            raise ValueError(
                f"KV cache overflow at layer {layer}: {start}+{t} > {self.max_tokens}"
            )
        self._ensure_capacity(start + t)
        self._k[layer, :, start : start + t] = k
        self._v[layer, :, start : start + t] = v
        self._lengths[layer] = start + t

    def view(self, layer: int) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only views of the filled prefix for ``layer``."""
        n = self.length(layer)
        return self._k[layer, :, :n], self._v[layer, :, :n]

    def truncate(self, layer: int, length: int) -> None:
        """Roll back ``layer`` to ``length`` tokens (speculative rejection)."""
        if not 0 <= length <= self.length(layer):
            raise ValueError(f"cannot truncate layer {layer} to {length}")
        self._lengths[layer] = length

    def nbytes(self) -> int:
        return self._k.nbytes + self._v.nbytes

    def swap_out(self) -> dict:
        """Evict the filled KV prefix to a host-side blob (bit-exact copies).

        Device storage shrinks back to the initial allocation; the returned
        blob carries everything :meth:`swap_in` needs to restore the cache
        exactly.  This is the real-tensor counterpart of the serving engine's
        modelled ``KV_SWAP`` transfer.
        """
        n = int(self._lengths.max()) if self.n_layers else 0
        blob = {
            "k": self._k[:, :, :n].copy(),
            "v": self._v[:, :, :n].copy(),
            "lengths": self._lengths.copy(),
        }
        blob["crc"] = self._blob_checksum(blob)
        self._capacity = self._initial
        self._k = np.zeros((self.n_layers, self.n_kv_heads, self._capacity, self.head_dim))
        self._v = np.zeros_like(self._k)
        self._lengths = np.zeros(self.n_layers, dtype=np.int64)
        return blob

    @staticmethod
    def _blob_checksum(blob: dict) -> int:
        """CRC32 over a swap blob's tensors and lengths."""
        crc = zlib.crc32(np.ascontiguousarray(blob["k"]).tobytes())
        crc = zlib.crc32(np.ascontiguousarray(blob["v"]).tobytes(), crc)
        return zlib.crc32(np.ascontiguousarray(blob["lengths"]).tobytes(), crc)

    def swap_in(self, blob: dict) -> None:
        """Restore a prefix previously evicted by :meth:`swap_out`.

        Blobs stamped by :meth:`swap_out` are verified against their CRC32
        checksum first; a mismatch raises
        :class:`~repro.errors.KVCorruptionError` before any cache mutation,
        so the caller can fall back to a recompute-from-context resume."""
        if "crc" in blob and self._blob_checksum(blob) != blob["crc"]:
            raise KVCorruptionError(
                "KV swap blob failed its checksum "
                f"(stamped {blob['crc']:#010x}); refusing to restore")
        lengths = np.asarray(blob["lengths"], dtype=np.int64)
        n = int(lengths.max()) if lengths.size else 0
        self._ensure_capacity(max(n, 1))
        self._k[:, :, :n] = blob["k"]
        self._v[:, :, :n] = blob["v"]
        self._lengths = lengths.copy()


class CausalSelfAttention:
    """Numpy causal MHA with RoPE and grouped-query attention support."""

    def __init__(
        self,
        dim: int,
        n_heads: int,
        rng: np.random.Generator,
        n_kv_heads: Optional[int] = None,
        max_positions: int = 4096,
    ):
        if dim % n_heads != 0:
            raise ValueError(f"dim {dim} not divisible by n_heads {n_heads}")
        self.dim = dim
        self.n_heads = n_heads
        self.n_kv_heads = n_kv_heads if n_kv_heads is not None else n_heads
        if self.n_heads % self.n_kv_heads != 0:
            raise ValueError("n_heads must be a multiple of n_kv_heads")
        self.head_dim = dim // n_heads
        self.group = self.n_heads // self.n_kv_heads
        scale = 1.0 / np.sqrt(dim)
        self.wq = rng.normal(0.0, scale, size=(dim, n_heads * self.head_dim))
        self.wk = rng.normal(0.0, scale, size=(dim, self.n_kv_heads * self.head_dim))
        self.wv = rng.normal(0.0, scale, size=(dim, self.n_kv_heads * self.head_dim))
        self.wo = rng.normal(0.0, scale, size=(n_heads * self.head_dim, dim))
        self.rope = RotaryEmbedding(self.head_dim, max_positions=max_positions)
        # Stacked inference layouts: one GEMM yields Q, K and V (or just K
        # and V for the early-exit fill) for a whole decode batch.  Cached
        # C-contiguous so the hot path never re-concatenates or transposes.
        self.refresh_stacked_weights()

    def refresh_stacked_weights(self) -> None:
        """Rebuild the cached contiguous stacked projections.

        Must be called whenever ``wq``/``wk``/``wv`` are replaced wholesale —
        the weight exporter (``repro.training.export``) copies trained
        matrices in and then refreshes these caches.
        """
        self.wqkv = np.ascontiguousarray(np.concatenate([self.wq, self.wk, self.wv], axis=1))
        self.wkv = np.ascontiguousarray(np.concatenate([self.wk, self.wv], axis=1))

    def project_kv(
        self, x: np.ndarray, positions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """K/V rows for ``x`` ([B, dim], already attn-normed) at ``positions``.

        The cheap early-exit KV fill: one ``[B, dim] x [dim, 2*kv_dim]`` GEMM
        plus the key rotation — no attention, no output projection, no FFN.
        Returns ``(k, v)`` each shaped ``[B, n_kv_heads, head_dim]``.
        """
        b = x.shape[0]
        kv_dim = self.n_kv_heads * self.head_dim
        kv = x @ self.wkv
        k = kv[:, :kv_dim].reshape(b, self.n_kv_heads, self.head_dim)
        v = kv[:, kv_dim:].reshape(b, self.n_kv_heads, self.head_dim)
        cos, sin = self.rope.tables_for(positions)
        k = apply_rope(k, cos[:, None, :], sin[:, None, :])
        return k, v

    def forward(
        self,
        x: np.ndarray,
        layer: int,
        cache: KVCache,
        positions: np.ndarray,
    ) -> np.ndarray:
        """Attend ``x`` ([T, dim]) at absolute ``positions``, appending to cache.

        Causality within the new block is enforced with an explicit mask; the
        cached prefix is fully visible (it precedes every new position).
        """
        t = x.shape[0]
        prefix_len = cache.length(layer)
        cos, sin = self.rope.tables_for(positions)

        q = (x @ self.wq).reshape(t, self.n_heads, self.head_dim).transpose(1, 0, 2)
        k = (x @ self.wk).reshape(t, self.n_kv_heads, self.head_dim).transpose(1, 0, 2)
        v = (x @ self.wv).reshape(t, self.n_kv_heads, self.head_dim).transpose(1, 0, 2)
        q = apply_rope(q, cos, sin)
        k = apply_rope(k, cos, sin)

        cache.append(layer, k, v)
        keys, values = cache.view(layer)  # [n_kv_heads, prefix+t, head_dim]
        total = keys.shape[1]

        # Expand KV heads to query heads for grouped-query attention.
        keys_q = np.repeat(keys, self.group, axis=0)
        values_q = np.repeat(values, self.group, axis=0)

        scores = q @ keys_q.transpose(0, 2, 1) / np.sqrt(self.head_dim)  # [H, t, total]
        # Row i (new position prefix_len + i) may attend to keys [0 .. prefix+i].
        key_idx = np.arange(total)[None, :]
        query_idx = (prefix_len + np.arange(t))[:, None]
        scores = np.where(key_idx <= query_idx, scores, -np.inf)

        attn = softmax(scores, axis=-1)
        ctx = attn @ values_q  # [H, t, head_dim]
        ctx = ctx.transpose(1, 0, 2).reshape(t, self.n_heads * self.head_dim)
        return ctx @ self.wo

    def decode_batch(
        self,
        x: np.ndarray,
        layer: int,
        caches: Sequence[KVCache],
        positions: np.ndarray,
    ) -> np.ndarray:
        """Batched single-token decode: one new token per sequence.

        ``x`` is ``[B, dim]`` (row ``i`` is sequence ``i``'s current
        activation), ``caches[i]`` its KV cache and ``positions[i]`` its
        absolute position.  The QKV projection and the output projection are
        one stacked GEMM each across the batch; attention itself is a
        mask-free gather over each sequence's filled cache view (a single
        query at the newest position sees the whole prefix, so no causal mask
        is needed).  Sequences whose caches have the same filled length —
        the common case, since every live sequence grows one token per tick —
        are stacked and attended in one batched matmul; odd lengths fall back
        to a per-sequence gather.  Appends this step's K/V to every cache.
        """
        b = x.shape[0]
        q_dim = self.n_heads * self.head_dim
        kv_dim = self.n_kv_heads * self.head_dim
        qkv = x @ self.wqkv  # [B, q_dim + 2*kv_dim], one GEMM for the batch
        q = qkv[:, :q_dim].reshape(b, self.n_heads, self.head_dim)
        k = qkv[:, q_dim : q_dim + kv_dim].reshape(b, self.n_kv_heads, self.head_dim)
        v = qkv[:, q_dim + kv_dim :].reshape(b, self.n_kv_heads, self.head_dim)
        cos, sin = self.rope.tables_for(positions)  # [B, head_dim/2]
        q = apply_rope(q, cos[:, None, :], sin[:, None, :])
        k = apply_rope(k, cos[:, None, :], sin[:, None, :])

        groups: dict = {}
        for i, cache in enumerate(caches):
            cache.append(layer, k[i][:, None, :], v[i][:, None, :])
            groups.setdefault(cache.length(layer), []).append(i)

        sqrt_hd = np.sqrt(self.head_dim)
        ctx = np.empty((b, self.n_heads * self.head_dim))
        for total, idx in groups.items():
            if len(idx) == 1:
                i = idx[0]
                keys, values = caches[i].view(layer)  # [n_kv_heads, T, head_dim]
                # Grouped-query layout: query head h reads KV head h // group.
                qi = q[i].reshape(self.n_kv_heads, self.group, self.head_dim)
                scores = qi @ keys.transpose(0, 2, 1) / sqrt_hd
                attn = softmax(scores, axis=-1)
                ctx[i] = (attn @ values).reshape(-1)
                continue
            keys = np.stack([caches[i].view(layer)[0] for i in idx])
            values = np.stack([caches[i].view(layer)[1] for i in idx])
            qg = q[idx].reshape(len(idx), self.n_kv_heads, self.group, self.head_dim)
            scores = qg @ keys.transpose(0, 1, 3, 2) / sqrt_hd  # [n, KV, group, T]
            attn = softmax(scores, axis=-1)
            ctx[idx] = (attn @ values).reshape(len(idx), -1)
        return ctx @ self.wo
