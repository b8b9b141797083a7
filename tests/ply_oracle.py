"""The PLY reader the export tests compare against: it parses the header line by
line and reads each declared property as its own field with np.frombuffer."""

import numpy as np

_TYPES = {"float": "<f4", "uchar": "u1"}


def read_ply(path):
    """(header lines, xyz, rgb) of a binary little-endian PLY: xyz is [N, 3]
    float32 and rgb [N, 3] uint8, or None when the file declares no colors.
    A body whose size is not the declared vertex count fails an assert."""
    with open(path, "rb") as f:
        data = f.read()
    end = data.index(b"end_header\n") + len(b"end_header\n")
    header = data[:end].decode("ascii").splitlines()
    assert header[:2] == ["ply", "format binary_little_endian 1.0"], header
    (n,) = [int(line.split()[2]) for line in header if line.startswith("element vertex ")]
    props = [line.split()[1:] for line in header if line.startswith("property ")]
    body = np.frombuffer(data, [(name, _TYPES[kind]) for kind, name in props], n, end)
    assert end + body.nbytes == len(data), "bytes after the last vertex"
    names = [name for _, name in props]
    xyz = np.column_stack([body[a] for a in "xyz"]).reshape(n, 3)
    rgb = (np.column_stack([body[c] for c in ("red", "green", "blue")]).reshape(n, 3)
           if "red" in names else None)
    return header, xyz, rgb
