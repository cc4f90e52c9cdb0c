"""Ginkgo-style Accessor interface: storage format decoupled from the
float64 arithmetic format (paper refs [1], [9])."""

from .base import VectorAccessor
from .frsz2_accessor import Frsz2Accessor, Frsz2Tiles
from .precision import (
    Float16Accessor,
    Float32Accessor,
    Float64Accessor,
    PrecisionAccessor,
)
from .registry import accessor_factory, list_storage_formats, make_accessor
from .roundtrip import RoundTripAccessor

__all__ = [
    "VectorAccessor",
    "PrecisionAccessor",
    "Float64Accessor",
    "Float32Accessor",
    "Float16Accessor",
    "Frsz2Accessor",
    "RoundTripAccessor",
    "Frsz2Tiles",
    "make_accessor",
    "accessor_factory",
    "list_storage_formats",
]
