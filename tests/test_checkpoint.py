"""Checkpoint serialization: round trip, checksum, corruption."""

import struct

import numpy as np
import pytest

from multires.cli import main
from multires.errors import FormatError
from multires.fileio import frame
from multires.model import (
    init_convrr_params,
    init_fcrr_params,
    read_checkpoint,
    serialize_params,
    write_checkpoint,
)
from multires.model.checkpoint import CRR_MAGIC


def test_convrr_round_trip_bitwise(tmp_path, rng):
    params = init_convrr_params(6, depth=3, window=3, scale=0.07, rng=rng)
    path = tmp_path / "m.crr"
    write_checkpoint(str(path), params, "convrr")
    loaded, kind = read_checkpoint(str(path))
    assert kind == "convrr"
    assert loaded.window == 3 and loaded.depth == 3
    assert abs(loaded.scale - np.float32(0.07)) == 0
    for a, b in zip(loaded.tensors(), params.tensors()):
        assert np.array_equal(a, b)


def test_fcrr_round_trip(tmp_path, rng):
    params = init_fcrr_params(5, rng=rng)
    path = tmp_path / "m.crr"
    write_checkpoint(str(path), params, "fcrr")
    loaded, kind = read_checkpoint(str(path))
    assert kind == "fcrr"
    assert np.array_equal(loaded.weight, params.weight)
    assert np.array_equal(loaded.bias, params.bias)


def test_serialization_deterministic(rng):
    params = init_convrr_params(4, rng=rng)
    assert serialize_params(params, "convrr") == serialize_params(params, "convrr")


def test_bad_magic(tmp_path, rng):
    path = tmp_path / "m.crr"
    write_checkpoint(str(path), init_fcrr_params(3, rng=rng), "fcrr")
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="bad magic"):
        read_checkpoint(str(path))


def test_flipped_payload_fails_checksum(tmp_path, rng):
    path = tmp_path / "m.crr"
    write_checkpoint(str(path), init_fcrr_params(3, rng=rng), "fcrr")
    blob = bytearray(path.read_bytes())
    blob[20] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="checksum"):
        read_checkpoint(str(path))


def test_truncation_rejected(tmp_path, rng):
    path = tmp_path / "m.crr"
    write_checkpoint(str(path), init_fcrr_params(3, rng=rng), "fcrr")
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 9])
    with pytest.raises(FormatError):
        read_checkpoint(str(path))


def write_convrr_frame(path, window, kernel_shapes, dim):
    """A convrr checkpoint with a valid frame and checksum, whatever its header and shapes."""
    body = [struct.pack("<BHHfI", 1, len(kernel_shapes), window, 0.05, dim)]
    for shape in kernel_shapes:
        for tensor in (np.zeros(shape, dtype="<f4"), np.zeros(shape[0], dtype="<f4")):
            body.append(struct.pack(f"<B{tensor.ndim}I", tensor.ndim, *tensor.shape))
            body.append(tensor.tobytes())
    path.write_bytes(b"".join(frame(CRR_MAGIC, 1, body)))


INVALID_ENCODERS = [
    (2, [(4, 2, 4)], "window must be odd and positive, got 2"),
    (3, [(3, 3, 4)], "block 0 kernels (3, 3, 4) != (4, 3, 4)"),
]


@pytest.mark.parametrize("window, kernel_shapes, message", INVALID_ENCODERS)
def test_invalid_encoder_in_a_valid_frame_names_the_file(tmp_path, window, kernel_shapes, message):
    path = tmp_path / "m.crr"
    write_convrr_frame(path, window, kernel_shapes, 4)
    with pytest.raises(FormatError) as info:
        read_checkpoint(str(path))
    assert str(info.value) == f"{path}: invalid encoder: {message}"


def test_eval_on_an_invalid_encoder_exit_2(cli_workspace, capsys):
    ws = cli_workspace
    assert main(["train", "--config", str(ws["config"])]) == 0
    window, kernel_shapes, message = INVALID_ENCODERS[0]
    write_convrr_frame(ws["checkpoint"], window, kernel_shapes, 4)
    capsys.readouterr()
    assert main(["eval", "--config", str(ws["config"])]) == 2
    assert capsys.readouterr().err == f"error: {ws['checkpoint']}: invalid encoder: {message}\n"
