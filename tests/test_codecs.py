"""From-scratch PNG/WAV codecs + the real-pixel multimodal stages."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from knowledgegraphs_ray.multimodal.png import (
    BadPng,
    UnsupportedPng,
    decode_png,
    encode_png,
)
from knowledgegraphs_ray.multimodal.stages import (
    AudioFeatures,
    ImageDecoder,
    ImageResizer,
    VideoFrameSampler,
    pack_frames,
    synth_png_table,
    synth_wav_table,
)
from knowledgegraphs_ray.multimodal.wav import (
    BadWav,
    UnsupportedWav,
    decode_wav,
    encode_wav,
)


@pytest.mark.parametrize("filter_type", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("shape", [(13, 9), (9, 13, 3), (7, 5, 4)])
def test_png_roundtrip_all_filters(filter_type, shape):
    rng = np.random.default_rng(filter_type * 100 + len(shape))
    img = rng.integers(0, 256, shape, dtype=np.uint8)
    data = encode_png(img, filter_type=filter_type)
    out = decode_png(data)
    np.testing.assert_array_equal(out, img)


def test_png_gradient_roundtrip():
    # smooth gradients are where Sub/Average/Paeth actually differ
    y, x = np.mgrid[0:32, 0:48]
    img = ((x * 3 + y * 5) % 256).astype(np.uint8)
    for ft in range(5):
        np.testing.assert_array_equal(decode_png(encode_png(img, filter_type=ft)), img)


def test_png_rejects_garbage_and_corruption():
    with pytest.raises(BadPng):
        decode_png(b"not a png at all")
    good = bytearray(encode_png(np.zeros((4, 4), np.uint8)))
    good[20] ^= 0xFF  # flip a byte inside IHDR -> CRC mismatch
    with pytest.raises(BadPng):
        decode_png(bytes(good))


def test_png_unsupported_scope():
    import struct
    import zlib

    sig = b"\x89PNG\r\n\x1a\n"

    def chunk(ctype, payload):
        return (
            struct.pack(">I", len(payload)) + ctype + payload
            + struct.pack(">I", zlib.crc32(ctype + payload) & 0xFFFFFFFF)
        )

    # 16-bit palette is invalid-by-spec -> unsupported
    ihdr = struct.pack(">IIBBBBB", 2, 2, 16, 3, 0, 0, 0)
    with pytest.raises(UnsupportedPng):
        decode_png(sig + chunk(b"IHDR", ihdr) + chunk(b"IEND", b""))
    # palette image without a PLTE chunk is corrupt
    from knowledgegraphs_ray.multimodal.png import BadPng

    ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 3, 0, 0, 0)
    body = zlib.compress(bytes(2 * 3))
    with pytest.raises(BadPng):
        decode_png(
            sig + chunk(b"IHDR", ihdr) + chunk(b"IDAT", body) + chunk(b"IEND", b"")
        )


def _raw_png(w, h, bit_depth, color_type, scanline_payload, extra_chunks=()):
    """Hand-build a PNG from raw (already-packed) scanline bytes with
    filter 0 on every row — the fixture constructor for decode paths the
    encoder doesn't emit (palette / 16-bit / sub-byte)."""
    import struct
    import zlib

    sig = b"\x89PNG\r\n\x1a\n"

    def chunk(ctype, payload):
        return (
            struct.pack(">I", len(payload)) + ctype + payload
            + struct.pack(">I", zlib.crc32(ctype + payload) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", w, h, bit_depth, color_type, 0, 0, 0)
    body = b"".join(b"\x00" + row for row in scanline_payload)
    out = sig + chunk(b"IHDR", ihdr)
    for ctype, payload in extra_chunks:
        out += chunk(ctype, payload)
    return out + chunk(b"IDAT", zlib.compress(body)) + chunk(b"IEND", b"")


def test_png_palette_decode_expands_rgb():
    pal = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255, 10, 20, 30])  # 4 colors
    rows = [bytes([0, 1, 2]), bytes([3, 0, 3])]
    img = decode_png(_raw_png(3, 2, 8, 3, rows, [(b"PLTE", pal)]))
    assert img.shape == (2, 3, 3) and img.dtype == np.uint8
    assert img[0, 0].tolist() == [255, 0, 0]
    assert img[1, 1].tolist() == [255, 0, 0]
    assert img[1, 2].tolist() == [10, 20, 30]


def test_png_palette_trns_alpha():
    pal = bytes([1, 2, 3, 4, 5, 6])
    rows = [bytes([0, 1])]
    img = decode_png(
        _raw_png(2, 1, 8, 3, rows, [(b"PLTE", pal), (b"tRNS", bytes([128]))])
    )
    assert img.shape == (1, 2, 4)
    assert img[0, 0].tolist() == [1, 2, 3, 128]
    assert img[0, 1].tolist() == [4, 5, 6, 255]  # beyond tRNS -> opaque


def test_png_palette_4bit_packing():
    pal = bytes([0, 0, 0, 50, 50, 50, 100, 100, 100, 200, 200, 200])
    # 3 px/row at 4 bits: indices 1,2,3 pack to 0x12 0x30
    img = decode_png(_raw_png(3, 1, 4, 3, [bytes([0x12, 0x30])], [(b"PLTE", pal)]))
    assert img[0].tolist() == [[50] * 3, [100] * 3, [200] * 3]


def test_png_16bit_gray_and_rgb():
    g = np.array([[0, 1000], [65535, 513]], np.uint16)
    rows = [g[0].astype(">u2").tobytes(), g[1].astype(">u2").tobytes()]
    out = decode_png(_raw_png(2, 2, 16, 0, rows))
    assert out.dtype == np.uint16
    np.testing.assert_array_equal(out, g)
    rgb = np.arange(2 * 2 * 3, dtype=np.uint16).reshape(2, 2, 3) * 4000
    rows = [rgb[y].astype(">u2").tobytes() for y in range(2)]
    out = decode_png(_raw_png(2, 2, 16, 2, rows))
    assert out.shape == (2, 2, 3) and out.dtype == np.uint16
    np.testing.assert_array_equal(out, rgb)


def test_png_1bit_gray_scales_full_range():
    # 0b10110000 -> pixels 1,0,1,1 (w=4) -> 255,0,255,255
    out = decode_png(_raw_png(4, 1, 1, 0, [bytes([0b10110000])]))
    assert out.tolist() == [[255, 0, 255, 255]]


def test_png_gray_alpha_decode():
    ga = np.array([[[10, 255], [20, 128]]], np.uint8)  # (1, 2, 2)
    out = decode_png(_raw_png(2, 1, 8, 4, [ga[0].tobytes()]))
    assert out.shape == (1, 2, 2)
    np.testing.assert_array_equal(out, ga)


@pytest.mark.parametrize("channels", [1, 2])
def test_wav_roundtrip(channels):
    rng = np.random.default_rng(5)
    x = rng.integers(-30000, 30000, (500, channels)).astype(np.int16)
    if channels == 1:
        x = x[:, 0]
    out, rate = decode_wav(encode_wav(x, 16000))
    assert rate == 16000
    np.testing.assert_array_equal(out, x)


def test_wav_rejects_bad_and_unsupported():
    with pytest.raises(BadWav):
        decode_wav(b"RIFFxxxxJUNK")
    import struct

    # float PCM (tag 3)
    fmt = struct.pack("<HHIIHH", 3, 1, 8000, 16000, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", 0)
    with pytest.raises(UnsupportedWav):
        decode_wav(b"RIFF" + struct.pack("<I", len(body)) + body)


def test_image_decoder_png_real_pixels():
    t = synth_png_table(6)
    out = ImageDecoder("png")(t)
    # recompute the expected means by decoding independently
    exp = [float(decode_png(p).mean()) for p in t["payload"].to_pylist()]
    assert out["mean_px"].to_pylist() == pytest.approx(exp)
    assert "payload" not in out.schema.names


def test_image_resizer_png():
    t = synth_png_table(4)
    out = ImageResizer((12, 10), mode="png")(t)
    assert out["width"].to_pylist() == [12] * 4
    assert out["height"].to_pylist() == [10] * 4
    for p in out["payload"].to_pylist():
        img = decode_png(p)
        assert img.shape[:2] == (10, 12)


def test_audio_features_stage_in_pipeline():
    ds = ray.data.from_arrow(synth_wav_table(12))
    out = ds.map_batches(
        AudioFeatures,
        batch_format="pyarrow",
        batch_size=4,
        concurrency=2,
        num_cpus=1,
    ).to_pandas()
    assert len(out) == 12
    assert (out["duration_s"] > 0).all()
    assert (out["peak"] <= 12000).all()
    assert (out["rms"] > 0).all()
    # sine wave ZCR ~ 2*freq/rate, always in (0, 1)
    assert ((out["zcr"] > 0) & (out["zcr"] < 1)).all()


def test_video_frame_sampler():
    rng = np.random.default_rng(1)
    frames = [
        encode_png(rng.integers(0, 256, (6, 8), dtype=np.uint8)) for _ in range(11)
    ]
    vid = pa.table(
        {
            "item_id": pa.array([7], pa.int64()),
            "payload": pa.array([pack_frames(frames)], pa.binary()),
        }
    )
    out = VideoFrameSampler(every_n=4)(vid)
    assert out["frame_idx"].to_pylist() == [0, 4, 8]
    assert out["width"].to_pylist() == [8, 8, 8]
    exp0 = float(decode_png(frames[0]).mean())
    assert out["mean_px"].to_pylist()[0] == pytest.approx(exp0)


# --- baseline JPEG codec (r5) -----------------------------------------------

from knowledgegraphs_ray.multimodal.jpeg import (  # noqa: E402
    BadJpeg,
    UnsupportedJpeg,
    decode_jpeg,
    encode_jpeg,
)


def test_jpeg_solid_and_smooth_roundtrip():
    img = np.full((16, 16), 128, np.uint8)
    assert np.array_equal(decode_jpeg(encode_jpeg(img)), img)
    rgb = np.zeros((8, 8, 3), np.uint8)
    rgb[..., 0], rgb[..., 1], rgb[..., 2] = 200, 100, 50
    out = decode_jpeg(encode_jpeg(rgb, quality=95))
    assert int(np.abs(out.astype(int) - rgb.astype(int)).max()) <= 1
    x = np.tile(np.linspace(0, 255, 32).astype(np.uint8), (24, 1))
    out = decode_jpeg(encode_jpeg(x, quality=90))
    assert out.shape == (24, 32)
    assert int(np.abs(out.astype(int) - x.astype(int)).max()) <= 2


def test_jpeg_fixture_bit_exact():
    """Committed reference array: the decoder's output for this exact
    deterministic fixture must never drift (Huffman/zigzag/IDCT plumbing
    is pinned bit for bit)."""
    yy, xx = np.mgrid[0:8, 0:8]
    img = ((yy * 29 + xx * 13) % 251).astype(np.uint8)
    payload = encode_jpeg(img, quality=75)
    expected = np.array(
        [
            [7, 10, 30, 29, 62, 60, 84, 86],
            [12, 50, 56, 59, 88, 86, 100, 134],
            [61, 77, 73, 109, 105, 112, 146, 132],
            [81, 87, 136, 118, 138, 172, 143, 201],
            [124, 121, 137, 148, 164, 176, 193, 190],
            [147, 174, 166, 191, 200, 207, 231, 240],
            [165, 178, 210, 207, 227, 234, 0, 17],
            [209, 208, 228, 250, 1, 17, 42, 35],
        ],
        np.uint8,
    )
    np.testing.assert_array_equal(decode_jpeg(payload), expected)


def test_jpeg_420_subsampling_and_odd_sizes():
    yy, xx = np.mgrid[0:37, 0:29]
    img = np.dstack(
        [
            (127 + 100 * np.sin(yy / 8)).astype(np.uint8),
            (127 + 100 * np.cos(xx / 9)).astype(np.uint8),
            ((yy + xx) // 2).astype(np.uint8),
        ]
    )
    for sub in ("444", "420"):
        out = decode_jpeg(encode_jpeg(img, quality=90, subsampling=sub))
        assert out.shape == img.shape
        err = np.abs(out.astype(int) - img.astype(int))
        assert err.mean() < 4.0, f"{sub}: mean err {err.mean()}"


def test_jpeg_restart_markers_identical():
    yy, xx = np.mgrid[0:33, 0:41]
    img = ((yy * 7 + xx * 3) % 256).astype(np.uint8)
    a = decode_jpeg(encode_jpeg(img, quality=85, restart_interval=2))
    b = decode_jpeg(encode_jpeg(img, quality=85))
    np.testing.assert_array_equal(a, b)
    rgb = np.dstack([img, img[::-1], img[:, ::-1]])
    a = decode_jpeg(encode_jpeg(rgb, quality=85, subsampling="420", restart_interval=3))
    b = decode_jpeg(encode_jpeg(rgb, quality=85, subsampling="420"))
    np.testing.assert_array_equal(a, b)


def test_jpeg_rejects_bad_and_unsupported():
    with pytest.raises(BadJpeg):
        decode_jpeg(b"not a jpeg at all")
    good = encode_jpeg(np.full((8, 8), 10, np.uint8))
    # flip SOF0 to SOF3 (lossless) -> unsupported
    idx = good.find(b"\xff\xc0")
    bad = good[:idx] + b"\xff\xc3" + good[idx + 2 :]
    with pytest.raises(UnsupportedJpeg):
        decode_jpeg(bad)


def test_image_decoder_real_mode_sniffs_png_and_jpeg():
    from knowledgegraphs_ray.multimodal.stages import ImageDecoder

    dec = ImageDecoder(mode="real")
    img = np.full((9, 11), 77, np.uint8)
    assert dec.decode_one(encode_png(img), 11, 9).shape == (9, 11)
    assert dec.decode_one(encode_jpeg(img), 11, 9).shape == (9, 11)
    with pytest.raises(NotImplementedError):
        dec.decode_one(b"RIFF....WEBP", 1, 1)


def test_image_resizer_real_mode_mixed_formats(ray_session):
    from knowledgegraphs_ray.multimodal.stages import IMAGE_SCHEMA, ImageResizer

    from knowledgegraphs_ray.multimodal.gif import encode_gif

    rng = np.random.default_rng(3)
    payloads, fmts = [], []
    for i in range(6):
        img = rng.integers(0, 256, (20 + i, 17 + i), dtype=np.uint8)
        if i % 3 == 1:
            payloads.append(encode_jpeg(img, quality=90))
            fmts.append("image/jpeg")
        elif i % 3 == 2:
            rgb = np.dstack([img // 64 * 64] * 3)  # <=256 distinct colors
            payloads.append(encode_gif(rgb))
            fmts.append("image/gif")
        else:
            payloads.append(encode_png(img))
            fmts.append("image/png")
    t = pa.table(
        {
            "item_id": pa.array(np.arange(6), pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
            "width": pa.array([17 + i for i in range(6)], pa.int32()),
            "height": pa.array([20 + i for i in range(6)], pa.int32()),
            "format": pa.array(fmts, pa.string()),
        },
        schema=IMAGE_SCHEMA,
    )
    out = (
        ray.data.from_arrow(t)
        .map_batches(
            ImageResizer(target=(8, 8), mode="real"),
            batch_size=4,
            batch_format="pyarrow",
            concurrency=1,
        )
        .take_all()
    )
    assert len(out) == 6
    for row in out:
        assert row["format"] == "image/png"
        small = decode_png(row["payload"])
        assert small.shape[:2] == (8, 8)  # GIF rows resize as (8, 8, 3)


def _adam7_png(img, color_type):
    """Hand-interlace ``img`` into an Adam7 PNG with filter-0 passes."""
    import struct
    import zlib

    from knowledgegraphs_ray.multimodal.png import _ADAM7

    def chunk(ctype, payload):
        return (
            struct.pack(">I", len(payload)) + ctype + payload
            + struct.pack(">I", zlib.crc32(ctype + payload) & 0xFFFFFFFF)
        )

    h, w = img.shape[:2]
    chn = 1 if img.ndim == 2 else img.shape[2]
    body = bytearray()
    for x0, y0, dx, dy in _ADAM7:
        sub = img[y0::dy, x0::dx]
        if sub.size == 0:
            continue
        hp, wp = sub.shape[:2]
        flat = sub.reshape(hp, wp * chn)
        for r in range(hp):
            body += b"\x00" + flat[r].tobytes()
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 1)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(bytes(body)))
        + chunk(b"IEND", b"")
    )


@pytest.mark.parametrize(
    "shape,ct", [((13, 11), 0), ((9, 10, 3), 2), ((8, 8, 4), 6), ((3, 2), 0)]
)
def test_png_adam7_interlaced_decode(shape, ct):
    rng = np.random.default_rng(sum(shape))
    img = rng.integers(0, 256, shape, dtype=np.uint8)
    np.testing.assert_array_equal(decode_png(_adam7_png(img, ct)), img)


# --- progressive JPEG (r5) --------------------------------------------------


def test_jpeg_progressive_equals_baseline():
    """Progressive encode uses the IDENTICAL quantized coefficients as
    baseline, so decoding both must match bit-exactly — this pins the
    entire SOF2 scan machinery (DC first/refine, AC spectral selection,
    AC successive-approximation refinement, EOB runs)."""
    rng = np.random.default_rng(7)
    yy, xx = np.mgrid[0:37, 0:29]
    cases = [
        np.full((16, 16), 128, np.uint8),
        np.tile(np.linspace(0, 255, 32).astype(np.uint8), (24, 1)),
        rng.integers(0, 256, (21, 19), dtype=np.uint8),
        rng.integers(0, 256, (24, 17, 3), dtype=np.uint8),
        np.dstack(
            [
                (127 + 100 * np.sin(yy / 8)).astype(np.uint8),
                (127 + 100 * np.cos(xx / 9)).astype(np.uint8),
                ((yy + xx) // 2).astype(np.uint8),
            ]
        ),
        # sparse high-frequency content: long EOB runs in the AC scans
        (np.zeros((48, 48), np.uint8) + 128
         + (np.mgrid[0:48, 0:48][0] % 16 == 0) * 40).astype(np.uint8),
    ]
    for img in cases:
        for q in (50, 85, 95):
            base = decode_jpeg(encode_jpeg(img, quality=q))
            prog = decode_jpeg(encode_jpeg(img, quality=q, progressive=True))
            np.testing.assert_array_equal(base, prog)


def test_jpeg_progressive_scan_roundtrip_randomized():
    """AC first + refinement scan emitters vs decoders at the coefficient
    level over random sparse blocks — exercises EOB runs, ZRL walks, and
    correction-bit interleaving without the DCT in the way."""
    from knowledgegraphs_ray.multimodal.jpeg import (
        K_AC_LUMA,
        _ac_first,
        _ac_refine,
        _BitReader,
        _BitWriter,
        _canonical_codes,
        _emit_ac_scan,
        _prog_ac_table,
    )

    dec_tbl, enc_tbl = _canonical_codes(*_prog_ac_table(K_AC_LUMA))
    rng = np.random.default_rng(1)
    for _ in range(120):
        blocks = []
        for _b in range(int(rng.integers(1, 9))):
            zz = np.zeros(64, np.int64)
            nnz = int(rng.integers(0, 12))
            pos = rng.choice(np.arange(1, 64), size=nnz, replace=False)
            zz[pos] = rng.integers(-40, 41, size=nnz)
            blocks.append(zz)
        w = _BitWriter()
        _emit_ac_scan(w, blocks, 1, 63, 1, enc_tbl, refine=False)
        w.flush()
        out = [np.zeros(64, np.int64) for _ in blocks]
        br = _BitReader(bytes(w.out) + b"\xff\xd9", 0)
        eob = 0
        for c in out:
            eob = _ac_first(br, c, 1, 63, 1, dec_tbl, eob)
        w = _BitWriter()
        _emit_ac_scan(w, blocks, 1, 63, 0, enc_tbl, refine=True)
        w.flush()
        br = _BitReader(bytes(w.out) + b"\xff\xd9", 0)
        eob = 0
        for c in out:
            eob = _ac_refine(br, c, 1, 63, 0, dec_tbl, eob)
        for a, b in zip(blocks, out):
            e = a.copy()
            e[0] = 0
            np.testing.assert_array_equal(e[1:], b[1:])


def test_jpeg_progressive_via_real_mode_stage():
    from knowledgegraphs_ray.multimodal.stages import ImageDecoder

    img = np.tile(np.linspace(0, 255, 24).astype(np.uint8), (16, 1))
    payload = encode_jpeg(img, quality=90, progressive=True)
    out = ImageDecoder(mode="real").decode_one(payload, 24, 16)
    assert out.shape == (16, 24)


def test_jpeg_progressive_encoder_guardrails():
    img = np.zeros((8, 8, 3), np.uint8)
    with pytest.raises(ValueError):
        encode_jpeg(img, progressive=True, restart_interval=2)
    with pytest.raises(ValueError):
        encode_jpeg(img, subsampling="411")


def test_jpeg_subsampled_and_progressive_variants():
    """4:2:2 baseline + progressive across every subsampling (the
    non-interleaved AC scans over a SUBSAMPLED component exercise the
    cw/ch != bw/bh block addressing) — all pinned bit-exact vs the
    baseline decode of the same coefficients."""
    yy, xx = np.mgrid[0:37, 0:29]
    img = np.dstack(
        [
            (127 + 100 * np.sin(yy / 8)).astype(np.uint8),
            (127 + 100 * np.cos(xx / 9)).astype(np.uint8),
            ((yy + xx) // 2).astype(np.uint8),
        ]
    )
    for sub in ("444", "420", "422"):
        base = decode_jpeg(encode_jpeg(img, quality=90, subsampling=sub))
        assert base.shape == img.shape
        err = np.abs(base.astype(int) - img.astype(int)).mean()
        assert err < 4.0, (sub, err)
        prog = decode_jpeg(
            encode_jpeg(img, quality=90, subsampling=sub, progressive=True)
        )
        np.testing.assert_array_equal(base, prog)
        a = decode_jpeg(
            encode_jpeg(img, quality=85, subsampling=sub, restart_interval=2)
        )
        b = decode_jpeg(encode_jpeg(img, quality=85, subsampling=sub))
        np.testing.assert_array_equal(a, b)


def test_wav_widened_scope_r5():
    """24/32-bit integer PCM, 32/64-bit float PCM, and extensible wrappers
    all decode to the same int16 stream."""
    import struct

    from knowledgegraphs_ray.multimodal.wav import decode_wav

    rng = np.random.default_rng(8)
    x16 = rng.integers(-30000, 30000, 200).astype(np.int16)

    def wav(tag, bits, payload, extensible=False):
        block = bits // 8
        if extensible:
            fmt = struct.pack(
                "<HHIIHHHHI", 0xFFFE, 1, 8000, 8000 * block, block, bits,
                22, bits, 1,
            ) + struct.pack("<H", tag) + b"\x00" * 14
        else:
            fmt = struct.pack("<HHIIHH", tag, 1, 8000, 8000 * block, block, bits)
        body = (
            b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload
        )
        return b"RIFF" + struct.pack("<I", len(body)) + body

    # float32 / float64 round back to the same int16
    f = (x16.astype(np.float64) / 32767.0)
    out, rate = decode_wav(wav(3, 32, f.astype("<f4").tobytes()))
    assert rate == 8000
    assert int(np.abs(out.astype(int) - x16.astype(int)).max()) <= 1
    out, _ = decode_wav(wav(3, 64, f.astype("<f8").tobytes()))
    np.testing.assert_array_equal(out, x16)
    # 32-bit int PCM: top 16 bits
    out, _ = decode_wav(wav(1, 32, (x16.astype("<i4") << 16).tobytes()))
    np.testing.assert_array_equal(out, x16)
    # 24-bit PCM: pack as little-endian 3-byte frames, top 16 recovered
    v24 = (x16.astype(np.int64) << 8) & 0xFFFFFF
    raw = np.zeros((len(x16), 3), np.uint8)
    raw[:, 0] = v24 & 0xFF
    raw[:, 1] = (v24 >> 8) & 0xFF
    raw[:, 2] = (v24 >> 16) & 0xFF
    out, _ = decode_wav(wav(1, 24, raw.tobytes()))
    np.testing.assert_array_equal(out, x16)
    # extensible wrapper around float32
    out, _ = decode_wav(wav(3, 32, f.astype("<f4").tobytes(), extensible=True))
    assert int(np.abs(out.astype(int) - x16.astype(int)).max()) <= 1


def test_sniff_media_quarantine_router(ray_session):
    import struct

    from knowledgegraphs_ray.multimodal.jpeg import encode_jpeg
    from knowledgegraphs_ray.multimodal.stages import sniff_media
    from knowledgegraphs_ray.multimodal.wav import encode_wav

    from knowledgegraphs_ray.multimodal.gif import encode_gif

    def encode_gif_fixture():
        return encode_gif(
            np.zeros((4, 4), np.uint8), np.zeros((2, 3), np.uint8)
        )

    img = np.full((8, 8), 3, np.uint8)
    wav = encode_wav(np.zeros(16, np.int16), 8000)
    webp = b"RIFF" + struct.pack("<I", 4) + b"WEBP"
    rows = [
        (encode_png(img), "image/png", True),
        (encode_jpeg(img), "image/jpeg", True),
        (encode_jpeg(img, progressive=True), "image/jpeg", True),
        (wav, "audio/wav", True),
        (webp, "image/webp", False),
        (encode_gif_fixture(), "image/gif", True),
        (b"garbage bytes", "unknown", False),
    ]
    t = pa.table(
        {
            "item_id": pa.array(range(len(rows)), pa.int64()),
            "payload": pa.array([r[0] for r in rows], pa.binary()),
        }
    )
    out = sniff_media(t)
    assert out["media_format"].to_pylist() == [r[1] for r in rows]
    assert out["decodable"].to_pylist() == [r[2] for r in rows]
    # router shape: decodable rows decode cleanly through the real stage
    ds = ray.data.from_arrow(out)
    good = ds.filter(expr="decodable")
    assert good.count() == 5


def test_jpeg_dc_thumbnail_scale8():
    yy, xx = np.mgrid[0:64, 0:48]
    img = (127 + 100 * np.sin(yy / 10) * np.cos(xx / 9)).astype(np.uint8)
    for prog in (False, True):
        subs = ("444", "420") if not prog else ("444",)
        for sub in subs:
            payload = encode_jpeg(img, subsampling=sub, progressive=prog)
            full = decode_jpeg(payload)
            thumb = decode_jpeg(payload, scale=8)
            assert thumb.shape == (8, 6)
            ref = full.reshape(8, 8, 6, 8).mean(axis=(1, 3))
            assert np.abs(thumb.astype(float) - ref).max() <= 2.0
    rgbpayload = encode_jpeg(np.dstack([img, img, img]), quality=90)
    t = decode_jpeg(rgbpayload, scale=8)
    assert t.shape == (8, 6, 3)


# --- GIF codec (r5) ---------------------------------------------------------


def test_gif_roundtrip_paths():
    from knowledgegraphs_ray.multimodal.gif import (
        BadGif,
        decode_gif,
        encode_gif,
    )

    rng = np.random.default_rng(3)
    img = rng.integers(0, 6, (23, 31), dtype=np.uint8) * 40
    rgb = np.dstack([img, 255 - img, img // 2])
    np.testing.assert_array_equal(decode_gif(encode_gif(rgb)), rgb)
    # 256-color indexed with dictionary growth + reset at 4096
    pal = rng.integers(0, 256, (256, 3), dtype=np.uint8)
    big = rng.integers(0, 256, (200, 200), dtype=np.uint8)
    np.testing.assert_array_equal(decode_gif(encode_gif(big, pal)), pal[big])
    # interlaced row order
    np.testing.assert_array_equal(
        decode_gif(encode_gif(big, pal, interlace=True)), pal[big]
    )
    # transparency -> RGBA alpha plane
    out = decode_gif(encode_gif(img // 40, pal, transparent=3))
    assert out.shape == (23, 31, 4)
    np.testing.assert_array_equal(out[..., 3] == 0, img // 40 == 3)
    # corrupt stream
    with pytest.raises(BadGif):
        decode_gif(b"GIF89a\x00")
    with pytest.raises(BadGif):
        decode_gif(b"not a gif")
    # truncated stream: a cut anywhere after the header (graphic control
    # extension, descriptor, color tables, image sub-blocks) is BadGif
    payload = encode_gif(img // 40, pal, transparent=3)
    for cut in range(13, len(payload) - 1):
        with pytest.raises(BadGif):
            decode_gif(payload[:cut])


def test_gif_through_real_stages(ray_session):
    from knowledgegraphs_ray.multimodal.gif import encode_gif
    from knowledgegraphs_ray.multimodal.phash import ImageHasher
    from knowledgegraphs_ray.multimodal.stages import ImageDecoder

    rng = np.random.default_rng(5)
    img = rng.integers(0, 4, (20, 24), dtype=np.uint8) * 60
    rgb = np.dstack([img] * 3)
    payload = encode_gif(rgb)
    assert ImageDecoder(mode="real").decode_one(payload, 24, 20).shape == (
        20, 24, 3,
    )
    # same image as PNG and GIF must fingerprint identically
    t = pa.table(
        {
            "item_id": pa.array([1, 2], pa.int64()),
            "payload": pa.array([encode_png(rgb), payload], pa.binary()),
        }
    )
    h = ImageHasher(codec="real")(t)["simhash"].to_pylist()
    assert h[0] == h[1]


def _bmp_fixture(img_or_idx, bits=24, bottom_up=True, palette=None):
    import struct

    if bits == 8:
        idx = img_or_idx
        h, w = idx.shape
        stride = (w + 3) // 4 * 4
        rows = np.zeros((h, stride), np.uint8)
        rows[:, :w] = idx
        quads = np.zeros((len(palette), 4), np.uint8)
        quads[:, :3] = palette[:, [2, 1, 0]]
        pal = quads.tobytes()
    else:
        img = img_or_idx
        h, w = img.shape[:2]
        if bits == 24:
            stride = (w * 3 + 3) // 4 * 4
            rows = np.zeros((h, stride), np.uint8)
            rows[:, : w * 3] = img[:, :, [2, 1, 0]].reshape(h, w * 3)
        else:
            stride = w * 4
            rows = np.dstack(
                [img[:, :, 2], img[:, :, 1], img[:, :, 0],
                 np.zeros_like(img[:, :, 0])]
            ).reshape(h, stride)
        pal = b""
    if bottom_up:
        rows = rows[::-1]
    pix = rows.tobytes()
    off = 14 + 40 + len(pal)
    hdr = b"BM" + struct.pack("<IHHI", off + len(pix), 0, 0, off)
    info = (
        struct.pack("<I", 40)
        + struct.pack("<ii", w, h if bottom_up else -h)
        + struct.pack("<HH", 1, bits)
        + struct.pack("<II", 0, len(pix))
        + struct.pack("<ii", 2835, 2835)
        + struct.pack("<II", (len(pal) // 4) if pal else 0, 0)
    )
    return hdr + info + pal + pix


def test_bmp_decode_paths():
    from knowledgegraphs_ray.multimodal.gif import (
        UnsupportedBmp,
        decode_bmp,
    )

    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, (13, 10, 3), dtype=np.uint8)
    np.testing.assert_array_equal(decode_bmp(_bmp_fixture(img)), img)
    np.testing.assert_array_equal(
        decode_bmp(_bmp_fixture(img, bottom_up=False)), img
    )
    np.testing.assert_array_equal(decode_bmp(_bmp_fixture(img, bits=32)), img)
    idx = rng.integers(0, 7, (9, 11), dtype=np.uint8)
    palette = rng.integers(0, 256, (7, 3), dtype=np.uint8)
    np.testing.assert_array_equal(
        decode_bmp(_bmp_fixture(idx, bits=8, palette=palette)), palette[idx]
    )
    # RLE compression stays out of scope
    rle = bytearray(_bmp_fixture(idx, bits=8, palette=palette))
    rle[30] = 1  # biCompression = BI_RLE8
    with pytest.raises(UnsupportedBmp):
        decode_bmp(bytes(rle))
    # BMP routes as decodable through sniffing stages
    from knowledgegraphs_ray.multimodal.stages import ImageDecoder, sniff_media

    assert ImageDecoder(mode="real").decode_one(
        _bmp_fixture(img), 10, 13
    ).shape == (13, 10, 3)
    t = pa.table(
        {
            "item_id": pa.array([0], pa.int64()),
            "payload": pa.array([_bmp_fixture(img)], pa.binary()),
        }
    )
    out = sniff_media(t)
    assert out["media_format"].to_pylist() == ["image/bmp"]
    assert out["decodable"].to_pylist() == [True]
