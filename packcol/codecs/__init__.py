"""Codec registry — importing this package registers all codecs."""

from .base import (Codec, EncodedColumn, all_codecs, decode_any, get_codec,
                   register, subset_any, take_any)
from .bitpack import bits_needed, pack, packed_words_for, unpack
from . import (decfloat, delta, dictionary, forpack, fsst,  # noqa: F401
               passthrough, rle, tokdict, toksep)  # (register)
from .decfloat import DecimalFloatCodec
from .delta import DeltaCodec
from .dictionary import DictionaryCodec
from .forpack import ForCodec
from .fsst import FsstCodec
from .passthrough import PassthroughCodec
from .rle import RleCodec
from .tokdict import TokenDictCodec
from .toksep import TokSepCodec

__all__ = [
    "Codec", "EncodedColumn", "all_codecs", "decode_any", "get_codec",
    "register", "subset_any", "take_any", "bits_needed", "pack", "unpack", "packed_words_for",
    "DecimalFloatCodec", "DeltaCodec", "DictionaryCodec", "ForCodec", "FsstCodec", "PassthroughCodec",
    "RleCodec", "TokenDictCodec", "TokSepCodec",
]
