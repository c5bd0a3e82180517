"""Volume classification and run-length encoding."""

from .classify import (
    OPACITY_EPSILON,
    TransferFunction,
    binary_transfer_function,
    ct_transfer_function,
    mri_transfer_function,
    transfer_function_for,
)
from .rle import BYTES_PER_RUN, BYTES_PER_VOXEL, RLEVolume, encode, encode_all_axes
from .volume import ClassifiedVolume

__all__ = [
    "OPACITY_EPSILON",
    "TransferFunction",
    "binary_transfer_function",
    "ct_transfer_function",
    "mri_transfer_function",
    "transfer_function_for",
    "BYTES_PER_RUN",
    "BYTES_PER_VOXEL",
    "RLEVolume",
    "encode",
    "encode_all_axes",
    "ClassifiedVolume",
]
