"""From-scratch GIF codec (GIF87a/89a) — stdlib + numpy, no PIL.

Decode scope (documented, checked, raises outside it): the FIRST image
frame of a GIF87a/89a stream — global and local color tables, full
variable-width LZW with dictionary growth/reset, interlaced row order,
and the 89a graphic-control transparency index (expanded to an RGBA
alpha plane). Later animation frames are ignored by design (the crawl
thumbnail/feature grain wants frame 0); malformed streams raise
``BadGif``. The wire format is public (GIF89a specification) — the same
build-it-from-the-spec approach as ``multimodal/png.py`` / ``jpeg.py``.

Encode scope: single-frame GIF89a with a real LZW compressor (dictionary
growth + reset at 4096), optional interlacing and transparency — enough
to make deterministic fixtures exercising every decoder path.

Reference anchor: the reference engine treats binary attachments as
opaque payloads; decode powers the repo's multimodal extension stages
(SURVEY.md LLM-pipeline additions).
"""

from __future__ import annotations

import struct

import numpy as np


class UnsupportedGif(ValueError):
    """Valid GIF, but outside this codec's documented scope."""


class BadGif(ValueError):
    """Not a GIF / corrupt structure."""


_INTERLACE_PASSES = ((0, 8), (4, 8), (2, 4), (1, 2))


class _LsbBitReader:
    """LSB-first bit reader over the concatenated LZW sub-block bytes."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.acc = 0
        self.n = 0

    def read(self, width: int) -> int:
        while self.n < width:
            if self.pos >= len(self.data):
                raise BadGif("LZW stream truncated")
            self.acc |= self.data[self.pos] << self.n
            self.pos += 1
            self.n += 8
        v = self.acc & ((1 << width) - 1)
        self.acc >>= width
        self.n -= width
        return v


def _lzw_decode(min_code: int, data: bytes, expected: int) -> np.ndarray:
    """-> uint8 index array of length ``expected``."""
    clear = 1 << min_code
    end = clear + 1
    br = _LsbBitReader(data)
    out = np.empty(expected, np.uint8)
    n_out = 0

    def reset():
        return [bytes([i]) for i in range(clear)] + [b"", b""], min_code + 1

    table, width = reset()
    prev: bytes | None = None
    while n_out < expected:
        code = br.read(width)
        if code == clear:
            table, width = reset()
            prev = None
            continue
        if code == end:
            break
        if code < len(table) and (code < clear or len(table[code])):
            entry = table[code]
        elif code == len(table) and prev is not None:
            entry = prev + prev[:1]
        else:
            raise BadGif(f"invalid LZW code {code}")
        take = min(len(entry), expected - n_out)
        out[n_out : n_out + take] = np.frombuffer(entry[:take], np.uint8)
        n_out += take
        if prev is not None and len(table) < 4096:
            table.append(prev + entry[:1])
            if len(table) == (1 << width) and width < 12:
                width += 1
        prev = entry
    if n_out < expected:
        raise BadGif("LZW output short of the image size")
    return out


def _byte(data: bytes, pos: int) -> int:
    """``data[pos]``, or BadGif when the stream ends before ``pos``."""
    if pos >= len(data):
        raise BadGif("truncated stream")
    return data[pos]


def decode_gif(data: bytes) -> np.ndarray:
    """-> uint8 (h, w, 3) RGB, or (h, w, 4) RGBA when the first frame
    carries a transparency index (89a graphic control)."""
    if data[:6] not in (b"GIF87a", b"GIF89a"):
        raise BadGif("missing GIF signature")
    if len(data) < 13:
        raise BadGif("truncated header")
    sw, sh, flags, _bg, _aspect = struct.unpack("<HHBBB", data[6:13])
    pos = 13
    gct = None
    if flags & 0x80:
        n = 2 << (flags & 7)
        if pos + 3 * n > len(data):
            raise BadGif("truncated global color table")
        gct = np.frombuffer(data[pos : pos + 3 * n], np.uint8).reshape(-1, 3)
        pos += 3 * n
    transparent = None
    while pos < len(data):
        b = data[pos]
        if b == 0x3B:  # trailer
            raise BadGif("no image descriptor before trailer")
        if b == 0x21:  # extension
            label = _byte(data, pos + 1)
            pos += 2
            if label == 0xF9 and _byte(data, pos) >= 4:  # graphic control
                gflags = _byte(data, pos + 1)
                if gflags & 1:
                    transparent = _byte(data, pos + 4)
            while True:  # skip sub-blocks
                sz = _byte(data, pos)
                pos += 1 + sz
                if sz == 0:
                    break
            continue
        if b != 0x2C:
            raise BadGif(f"unexpected block 0x{b:02X}")
        if pos + 10 > len(data):
            raise BadGif("truncated stream")
        left, top, iw, ih, iflags = struct.unpack("<HHHHB", data[pos + 1 : pos + 10])
        pos += 10
        lct = gct
        if iflags & 0x80:
            n = 2 << (iflags & 7)
            if pos + 3 * n > len(data):
                raise BadGif("truncated local color table")
            lct = np.frombuffer(data[pos : pos + 3 * n], np.uint8).reshape(-1, 3)
            pos += 3 * n
        if lct is None:
            raise BadGif("image without any color table")
        min_code = _byte(data, pos)
        pos += 1
        if not (2 <= min_code <= 11):
            raise BadGif(f"bad LZW minimum code size {min_code}")
        chunks = []
        while True:
            sz = _byte(data, pos)
            pos += 1
            if sz == 0:
                break
            if pos + sz > len(data):
                raise BadGif("truncated stream")
            chunks.append(data[pos : pos + sz])
            pos += sz
        idx = _lzw_decode(min_code, b"".join(chunks), iw * ih)
        if int(idx.max(initial=0)) >= len(lct):
            raise BadGif("color index out of table range")
        rows = idx.reshape(ih, iw)
        if iflags & 0x40:  # interlaced: reorder the produced rows
            ordered = np.empty_like(rows)
            src = 0
            for start, step in _INTERLACE_PASSES:
                n_rows = len(range(start, ih, step))
                ordered[start:ih:step] = rows[src : src + n_rows]
                src += n_rows
            rows = ordered
        rgb = lct[rows]  # (ih, iw, 3)
        if transparent is not None and transparent < len(lct):
            alpha = np.where(rows == transparent, 0, 255).astype(np.uint8)
            return np.dstack([rgb, alpha])
        return rgb
    raise BadGif("no image data")


def _lzw_encode(min_code: int, indices: np.ndarray) -> bytes:
    """Real variable-width LZW with dictionary growth + reset at 4096."""
    clear = 1 << min_code
    end = clear + 1
    out = bytearray()
    acc = 0
    nbits = 0

    def emit(code: int, width: int):
        nonlocal acc, nbits
        acc |= code << nbits
        nbits += width
        while nbits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            nbits -= 8

    def fresh():
        return {bytes([i]): i for i in range(clear)}, end + 1, min_code + 1

    table, next_code, width = fresh()
    emit(clear, width)
    prev = b""
    for v in indices.tobytes():
        cur = prev + bytes([v])
        if cur in table:
            prev = cur
            continue
        emit(table[prev], width)
        if next_code < 4096:
            table[cur] = next_code
            if next_code == (1 << width) and width < 12:
                width += 1
            next_code += 1
        else:
            emit(clear, width)
            table, next_code, width = fresh()
        prev = bytes([v])
    if prev:
        emit(table[prev], width)
    emit(end, width)
    if nbits:
        out.append(acc & 0xFF)
    return bytes(out)


def encode_gif(
    img: np.ndarray,
    palette: np.ndarray | None = None,
    *,
    interlace: bool = False,
    transparent: int | None = None,
) -> bytes:
    """Index image (h, w) uint8 + palette (n, 3) -> single-frame GIF89a.
    When ``img`` is (h, w, 3) RGB, an exact palette is built from its
    distinct colors (must be <= 256)."""
    if img.ndim == 3:
        h, w, _ = img.shape
        flat = img.reshape(-1, 3)
        palette, inv = np.unique(flat, axis=0, return_inverse=True)
        if len(palette) > 256:
            raise ValueError("more than 256 distinct colors; quantize first")
        idx = inv.astype(np.uint8).reshape(h, w)
    else:
        if palette is None:
            raise ValueError("index image needs a palette")
        idx = np.ascontiguousarray(img, np.uint8)
        h, w = idx.shape
    n = max(2, int(len(palette)))
    depth = max(1, (n - 1).bit_length())
    table = np.zeros((1 << depth, 3), np.uint8)
    table[: len(palette)] = palette
    out = bytearray(b"GIF89a")
    out += struct.pack("<HHBBB", w, h, 0x80 | (depth - 1), 0, 0)
    out += table.tobytes()
    if transparent is not None:
        out += bytes([0x21, 0xF9, 4, 0x01, 0, 0, transparent, 0])
    iflags = 0x40 if interlace else 0
    out += b"\x2c" + struct.pack("<HHHHB", 0, 0, w, h, iflags)
    if interlace:
        rows = [idx[start::step] for start, step in _INTERLACE_PASSES]
        stream = np.concatenate(rows, axis=0).reshape(-1)
    else:
        stream = idx.reshape(-1)
    min_code = max(2, depth)
    out += bytes([min_code])
    lzw = _lzw_encode(min_code, stream)
    for i in range(0, len(lzw), 255):
        chunk = lzw[i : i + 255]
        out += bytes([len(chunk)]) + chunk
    out += b"\x00\x3b"
    return bytes(out)


# --- BMP (windows bitmap) ---------------------------------------------------
# Rides in this module as the second palette-family legacy format: the
# decode surface is tiny (uncompressed BI_RGB only) and shares the
# index->palette expansion shape with GIF.


class BadBmp(ValueError):
    pass


class UnsupportedBmp(ValueError):
    pass


def decode_bmp(data: bytes) -> np.ndarray:
    """Uncompressed BI_RGB BMP -> uint8 (h, w, 3) RGB (8-bit palette,
    24-bit BGR, or 32-bit BGRX); RLE/compressed inputs raise."""
    if data[:2] != b"BM" or len(data) < 54:
        raise BadBmp("missing BM header")
    (pix_off,) = struct.unpack("<I", data[10:14])
    (hdr_size,) = struct.unpack("<I", data[14:18])
    if hdr_size < 40:
        raise UnsupportedBmp(f"core header size {hdr_size}")
    w, h_signed = struct.unpack("<ii", data[18:26])
    bits, comp = struct.unpack("<HI", data[28:34])
    if comp != 0:
        raise UnsupportedBmp(f"compression {comp} (BI_RGB only)")
    if bits not in (8, 24, 32):
        raise UnsupportedBmp(f"{bits}-bit pixels (8/24/32 supported)")
    bottom_up = h_signed > 0
    h = abs(h_signed)
    pal = None
    if bits == 8:
        (ncol,) = struct.unpack("<I", data[46:50])
        ncol = ncol or 256
        quads = np.frombuffer(
            data[14 + hdr_size : 14 + hdr_size + 4 * ncol], np.uint8
        ).reshape(-1, 4)
        pal = quads[:, [2, 1, 0]]  # BGRX -> RGB
    stride = (w * bits // 8 + 3) // 4 * 4
    need = stride * h
    raw = np.frombuffer(data[pix_off : pix_off + need], np.uint8)
    if len(raw) != need:
        raise BadBmp("truncated pixel data")
    rows = raw.reshape(h, stride)
    if bottom_up:
        rows = rows[::-1]
    if bits == 8:
        idx = rows[:, :w]
        if int(idx.max(initial=0)) >= len(pal):
            raise BadBmp("palette index out of range")
        return pal[idx]
    px = rows[:, : w * (bits // 8)].reshape(h, w, bits // 8)
    return px[:, :, [2, 1, 0]]  # BGR(X) -> RGB
