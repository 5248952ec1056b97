"""Deterministic word-level tokenizer over the synthetic vocabulary.

The simulation vocabulary is abstract token ids; this tokenizer gives them a
human-readable surface form (``w042``-style words plus a small set of
punctuation/control tokens) so examples can print text, and maps arbitrary
input words back to ids by stable hashing — the same word always tokenizes
to the same id.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.utils.rng import hash_to_uint64

__all__ = ["SyntheticTokenizer"]

_SPECIALS = ["<bos>", "<eos>", "<pad>", ".", ",", "?", "!"]


class SyntheticTokenizer:
    """Bidirectional id <-> word mapping with hash fallback for OOV words."""

    def __init__(self, vocab_size: int = 512, seed: int = 0):
        if vocab_size <= len(_SPECIALS):
            raise ValueError(f"vocab_size must exceed {len(_SPECIALS)}")
        self.vocab_size = vocab_size
        self.seed = seed
        self._id_to_word: List[str] = list(_SPECIALS)
        width = len(str(vocab_size))
        for i in range(len(_SPECIALS), vocab_size):
            self._id_to_word.append(f"w{i:0{width}d}")
        self._word_to_id: Dict[str, int] = {w: i for i, w in enumerate(self._id_to_word)}

    @property
    def bos_id(self) -> int:
        return 0

    def id_to_word(self, token_id: int) -> str:
        return self._id_to_word[int(token_id) % self.vocab_size]

    def word_to_id(self, word: str) -> int:
        known = self._word_to_id.get(word)
        if known is not None:
            return known
        # OOV words hash to a stable id outside the specials range.
        base = len(_SPECIALS)
        return base + hash_to_uint64(self.seed, "oov", word) % (self.vocab_size - base)

    def encode(self, text: str, add_bos: bool = False) -> List[int]:
        ids = [self.bos_id] if add_bos else []
        ids.extend(self.word_to_id(w) for w in text.split())
        return ids

    def decode(self, token_ids: Sequence[int]) -> str:
        return " ".join(self.id_to_word(t) for t in token_ids)

    def roundtrips(self, text: str) -> bool:
        """Whether every word of ``text`` is in-vocabulary (exact roundtrip)."""
        return all(w in self._word_to_id for w in text.split())
