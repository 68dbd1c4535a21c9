"""Tests for repro.utils.shapes."""

import numpy as np
import pytest

from repro.utils.shapes import ConvShape, ConvShapeNd, conv_output_size


class TestConvOutputSize:
    def test_valid_no_padding(self):
        assert conv_output_size(5, 3) == 3

    def test_same_padding(self):
        assert conv_output_size(5, 3, padding=1) == 5

    def test_stride(self):
        assert conv_output_size(224, 7, padding=3, stride=2) == 112

    def test_kernel_equals_input(self):
        assert conv_output_size(4, 4) == 1

    def test_stride_floor(self):
        # (7 - 3) // 2 + 1 = 3
        assert conv_output_size(7, 3, stride=2) == 3

    def test_kernel_too_large(self):
        with pytest.raises(ValueError, match="exceeds padded input"):
            conv_output_size(4, 5)

    def test_padding_rescues_large_kernel(self):
        assert conv_output_size(4, 5, padding=1) == 2

    @pytest.mark.parametrize("bad", [0, -1])
    def test_nonpositive_input(self, bad):
        with pytest.raises(ValueError):
            conv_output_size(bad, 3)

    def test_negative_padding(self):
        with pytest.raises(ValueError):
            conv_output_size(5, 3, padding=-1)

    def test_zero_stride(self):
        with pytest.raises(ValueError):
            conv_output_size(5, 3, stride=0)


class TestConvShape:
    def test_output_extents(self):
        s = ConvShape(ih=5, iw=5, kh=3, kw=3)
        assert (s.oh, s.ow) == (3, 3)

    def test_padded_extents(self):
        s = ConvShape(ih=5, iw=7, kh=3, kw=3, padding=2)
        assert (s.padded_ih, s.padded_iw) == (9, 11)

    def test_element_counts(self):
        s = ConvShape(ih=6, iw=4, kh=2, kw=2, n=3, c=2, f=5)
        assert s.input_elems == 24
        assert s.kernel_elems == 4
        assert s.output_elems == 5 * 3
        assert s.total_input_elems == 3 * 2 * 24
        assert s.total_kernel_elems == 5 * 2 * 4
        assert s.total_output_elems == 3 * 5 * 15

    def test_macs_and_flops(self):
        s = ConvShape(ih=5, iw=5, kh=3, kw=3, n=2, c=3, f=4)
        assert s.macs == 2 * 4 * 3 * 9 * 9
        assert s.direct_flops == 2 * s.macs

    def test_poly_lengths_match_paper(self):
        # Sec. 3.2: combined kernel size = (Kh-1)*Iw + Kw.
        s = ConvShape(ih=5, iw=5, kh=3, kw=3)
        assert s.poly_input_len == 25
        assert s.poly_kernel_len == 2 * 5 + 3
        assert s.poly_product_len == 25 + 13 - 1

    def test_poly_lengths_use_padded_width(self):
        s = ConvShape(ih=5, iw=5, kh=3, kw=3, padding=1)
        assert s.poly_input_len == 49
        assert s.poly_kernel_len == 2 * 7 + 3

    def test_invalid_shape_raises_at_construction(self):
        with pytest.raises(ValueError):
            ConvShape(ih=3, iw=3, kh=5, kw=5)

    def test_with_replaces_fields(self):
        s = ConvShape(ih=8, iw=8, kh=3, kw=3)
        s2 = s.with_(n=16, padding=1)
        assert (s2.n, s2.padding) == (16, 1)
        assert (s.n, s.padding) == (1, 0)

    def test_tensor_shapes_roundtrip(self):
        s = ConvShape(ih=9, iw=7, kh=3, kw=2, n=4, c=2, f=6,
                      padding=1, stride=2)
        s2 = ConvShape.from_tensors(s.input_shape(), s.weight_shape(),
                                    s.padding, s.stride)
        assert s2 == s

    def test_from_tensors_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            ConvShape.from_tensors((1, 3, 8, 8), (4, 2, 3, 3))

    def test_from_tensors_bad_rank(self):
        with pytest.raises(ValueError, match="NCHW"):
            ConvShape.from_tensors((3, 8, 8), (4, 3, 3, 3))
        with pytest.raises(ValueError, match="FCKhKw"):
            ConvShape.from_tensors((1, 3, 8, 8), (4, 3, 3))

    def test_hashable_for_caching(self):
        s = ConvShape(ih=8, iw=8, kh=3, kw=3)
        assert {s: 1}[ConvShape(ih=8, iw=8, kh=3, kw=3)] == 1


class TestEnsureInt:
    def test_plain_and_numpy_ints_pass(self):
        import numpy as np

        from repro.utils.shapes import ensure_int
        assert ensure_int(3, "stride") == 3
        got = ensure_int(np.int32(5), "stride")
        assert got == 5 and type(got) is int

    @pytest.mark.parametrize("bad", [1.0, 1.9, "2", None, (1,)])
    def test_non_integral_rejected(self, bad):
        from repro.utils.shapes import ensure_int
        with pytest.raises(ValueError, match="stride must be an integer"):
            ensure_int(bad, "stride")

    def test_conv_shape_rejects_float_groups(self):
        with pytest.raises(ValueError, match="groups must be an integer"):
            ConvShape(ih=8, iw=8, kh=3, kw=3, n=1, c=4, f=4, groups=2.5)

    def test_from_tensors_rejects_float_groups(self):
        with pytest.raises(ValueError, match="groups must be an integer"):
            ConvShape.from_tensors((1, 4, 8, 8), (4, 4, 3, 3), 0, 1, 1, 2.0)


class TestConvShapeNd:
    def test_rank_checks_at_construction(self):
        with pytest.raises(ValueError, match="at least one spatial"):
            ConvShapeNd(extents=(), kernel=())
        with pytest.raises(ValueError, match="kernel rank"):
            ConvShapeNd(extents=(8, 8), kernel=(3,))

    def test_rank2_matches_conv_shape(self):
        nd = ConvShapeNd(extents=(9, 7), kernel=(3, 2), n=2, c=4, f=6,
                         padding=(1, 0, 2, 1), stride=(2, 1), dilation=2)
        flat = ConvShape(ih=9, iw=7, kh=3, kw=2, n=2, c=4, f=6,
                         padding=(1, 0, 2, 1), stride=(2, 1), dilation=2)
        assert nd.to_2d() == flat
        assert nd.out_extents == (flat.oh, flat.ow)
        assert nd.macs == flat.macs

    def test_poly_strides_are_row_major(self):
        # Padded extents (4, 6, 5): strides (30, 5, 1) — a 3D degree
        # map t^(30k + 5i + j) over the flattened padded volume.
        nd = ConvShapeNd(extents=(4, 4, 3), kernel=(2, 2, 2),
                         padding=(0, 1, 1))
        assert nd.padded_extents == (4, 6, 5)
        assert nd.poly_strides == (30, 5, 1)
        assert nd.poly_input_len == 120
        assert nd.poly_kernel_len == 1 + 30 + 5 + 1
        assert nd.poly_product_len == 120 + 37 - 1

    def test_dilation_stretches_kernel_degrees(self):
        nd = ConvShapeNd(extents=(8,), kernel=(3,), dilation=3)
        assert nd.eff_kernel == (7,)
        assert nd.poly_kernel_len == 1 + 3 * 2

    def test_equal_geometries_share_a_hash(self):
        a = ConvShapeNd(extents=(8, 8), kernel=(3, 3), padding=1,
                        stride=(2, 2))
        b = ConvShapeNd(extents=(8, 8), kernel=(3, 3),
                        padding=(1, 1, 1, 1), stride=2)
        assert a == b and hash(a) == hash(b)

    def test_from_tensors_roundtrip_any_rank(self):
        for x_shape, w_shape in [((2, 4, 11), (6, 4, 3)),
                                 ((2, 4, 5, 6, 4), (6, 2, 2, 3, 2))]:
            groups = 1 if len(x_shape) == 3 else 2
            nd = ConvShapeNd.from_tensors(x_shape, w_shape, padding=1,
                                          groups=groups)
            assert nd.input_shape() == x_shape
            assert nd.weight_shape() == w_shape
            assert nd.output_shape()[:2] == (x_shape[0], w_shape[0])

    def test_from_tensors_rejects_rank_mismatch(self):
        with pytest.raises(ValueError, match="kernel rank"):
            ConvShapeNd.from_tensors((1, 2, 8, 8), (2, 2, 3))
        with pytest.raises(ValueError, match="at least one spatial"):
            ConvShapeNd.from_tensors((1, 2), (2, 2))

    def test_from_tensors_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            ConvShapeNd.from_tensors((1, 4, 8, 8, 8), (2, 3, 3, 3, 3))

    def test_group_view_collapses_groups(self):
        nd = ConvShapeNd(extents=(8, 8), kernel=(3, 3), c=8, f=4, groups=4)
        view = nd.group_view()
        assert (view.c, view.f, view.groups) == (2, 1, 1)

    def test_to_2d_rejects_other_ranks(self):
        with pytest.raises(ValueError, match="rank-2"):
            ConvShapeNd(extents=(8,), kernel=(3,)).to_2d()


class TestFromTensorsMemo:
    """``from_tensors`` remembers validated shapes by exact arguments; the
    memo may skip checks only where they would pass again."""

    X, W = (1, 4, 8, 8), (4, 4, 3, 3)

    @pytest.mark.parametrize("stride", [1.0, np.float64(1), (1, 1.0)])
    def test_float_spellings_still_rejected_after_int_hit(self, stride):
        ConvShape.from_tensors(self.X, self.W, 1, 1)
        ConvShape.from_tensors(self.X, self.W, 1, (1, 1))
        with pytest.raises(ValueError, match="must be an integer"):
            ConvShape.from_tensors(self.X, self.W, 1, stride)
        with pytest.raises(ValueError, match="must be an integer"):
            ConvShapeNd.from_tensors(self.X, self.W, 1, stride)

    def test_numpy_ints_accepted(self):
        shape = ConvShape.from_tensors(self.X, self.W, 1, np.int64(1))
        assert shape == ConvShape.from_tensors(self.X, self.W, 1, 1)
        assert type(shape.stride) is int

    def test_list_and_tuple_spellings_give_equal_shapes(self):
        for cls in (ConvShape, ConvShapeNd):
            a = cls.from_tensors(list(self.X), list(self.W), [1, 0, 1, 0],
                                 [1, 2], [1, 1])
            b = cls.from_tensors(self.X, self.W, (1, 0, 1, 0), (1, 2),
                                 (1, 1))
            assert a == b and hash(a) == hash(b)

    def test_hit_returns_the_validated_shape(self):
        first = ConvShape.from_tensors(self.X, self.W, "same", 2)
        assert ConvShape.from_tensors(self.X, self.W, "same", 2) is first

    def test_rejections_are_not_remembered(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="does not fit"):
                ConvShape.from_tensors((1, 1, 4, 4), (1, 1, 6, 6))

    def test_memo_stays_bounded(self):
        from repro.utils import shapes

        for ih in range(3, 3 + shapes._SHAPE_MEMO_LIMIT + 50):
            ConvShape.from_tensors((1, 1, ih, 3), (1, 1, 3, 3))
        assert len(shapes._SHAPE_MEMO) <= shapes._SHAPE_MEMO_LIMIT

    def test_concurrent_lookups_stay_bounded_and_exact(self):
        """Threads inserting past the bound (evicting as they go) never
        lose the memo's invariants: bounded size, exact shapes."""
        import sys
        import threading

        from repro.utils import shapes

        extents = range(3, 3 + shapes._SHAPE_MEMO_LIMIT // 2)
        errors = []

        def work(kernel):
            try:
                for ih in extents:
                    got = ConvShape.from_tensors((1, 1, ih, 5),
                                                 (1, 1, kernel, kernel))
                    assert (got.ih, got.kh) == (ih, kernel)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,))
                       for k in (1, 2, 3, 1, 2, 3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(shapes._SHAPE_MEMO) <= shapes._SHAPE_MEMO_LIMIT

    def test_warm_conv2d_runs_no_shape_validation(self, monkeypatch):
        """A second identical F.conv2d builds no ConvShape: both of its
        lookups (registry dispatch and engine) hit the memo."""
        from repro.nn import functional as F

        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3))
        F.conv2d(x, w, padding=1)
        runs = []
        post_init = ConvShape.__post_init__

        def counting(shape):
            runs.append(shape)
            post_init(shape)

        monkeypatch.setattr(ConvShape, "__post_init__", counting)
        F.conv2d(x, w, padding=1)
        assert runs == []

