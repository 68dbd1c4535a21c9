"""Layer objects for the inference framework.

A deliberately small PyTorch-flavoured module system: layers hold
parameters as NumPy arrays, ``forward`` is pure, and ``Conv2d`` exposes the
``algorithm`` knob the paper's Sec. 4.2 experiment flips network-wide.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.registry import ConvAlgorithm
from repro.nn import functional as F
from repro.observe import span
from repro.perfmodel.counters import count
from repro.perfmodel.device import GpuDevice
from repro.perfmodel.timing import simulate
from repro.utils.shapes import ConvShape
from repro.utils.validation import require


class Layer:
    """Base class: a callable with an optional simulated-GPU cost."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def output_shape(self, input_shape: tuple) -> tuple:
        """Shape produced for an NCHW (or flat) input shape."""
        raise NotImplementedError

    def simulated_time_s(self, input_shape: tuple,
                         device: GpuDevice) -> float:
        """Simulated GPU seconds for one forward call (0 if negligible)."""
        return 0.0

    def param_count(self) -> int:
        return 0


class Conv2d(Layer):
    """2D convolution layer with a pluggable algorithm.

    Parameters are initialized with He-style scaling from a caller-provided
    generator, so networks are reproducible.

    ``forward`` is :func:`repro.nn.functional.conv2d` on the layer's
    parameters.  Under PolyHankel the kernel spectrum comes from the
    engine's weight-spectrum cache, keyed on the weight array's identity
    and verified against a snapshot of its contents: the first forward of
    each input geometry transforms the weight once, later forwards reuse
    the spectrum, and both rebinding ``layer.weight`` and mutating it in
    place make the next forward retransform.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 padding: int | tuple | str = 0, stride: int | tuple = 1,
                 dilation: int | tuple = 1, groups: int = 1,
                 bias: bool = True,
                 algorithm: ConvAlgorithm | str = ConvAlgorithm.POLYHANKEL,
                 rng: np.random.Generator | None = None):
        require(in_channels > 0 and out_channels > 0,
                "channel counts must be positive")
        require(kernel_size > 0, "kernel size must be positive")
        require(groups >= 1, "groups must be positive")
        require(in_channels % groups == 0 and out_channels % groups == 0,
                f"channels ({in_channels}) and filters ({out_channels}) "
                f"must be divisible by groups ({groups})")
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = padding
        self.stride = stride
        self.dilation = dilation
        self.groups = groups
        self.algorithm = (ConvAlgorithm(algorithm)
                          if isinstance(algorithm, str) else algorithm)
        fan_in = (in_channels // groups) * kernel_size * kernel_size
        scale = np.sqrt(2.0 / fan_in)
        self.weight = rng.standard_normal(
            (out_channels, in_channels // groups, kernel_size, kernel_size)
        ) * scale
        self.bias = np.zeros(out_channels) if bias else None

    def conv_shape(self, input_shape: tuple) -> ConvShape:
        return ConvShape.from_tensors(input_shape, self.weight.shape,
                                      self.padding, self.stride,
                                      self.dilation, self.groups)

    def forward(self, x: np.ndarray) -> np.ndarray:
        with span("conv2d.forward", algorithm=self.algorithm.value,
                  out_channels=self.out_channels, k=self.kernel_size):
            return F.conv2d(x, self.weight, self.bias, self.padding,
                            self.stride, dilation=self.dilation,
                            groups=self.groups, algorithm=self.algorithm)

    def submit(self, x: np.ndarray, server=None,
               deadline_s: float | None = None):
        """Submit this layer's forward to the serving layer; returns a
        ``Future``.

        Concurrent submissions against the same layer instance coalesce
        into one stacked engine call (the layer's weight array is the
        coalescing identity), so a burst of single-image requests runs at
        batched throughput.  The stacked call reads the same engine
        spectrum cache as :meth:`forward`.
        """
        return F.conv2d_async(x, self.weight, self.bias, self.padding,
                              self.stride, self.dilation, self.groups,
                              algorithm=self.algorithm, server=server,
                              deadline_s=deadline_s)

    def output_shape(self, input_shape: tuple) -> tuple:
        return self.conv_shape(input_shape).output_shape()

    def simulated_time_s(self, input_shape: tuple,
                         device: GpuDevice) -> float:
        return simulate(self.algorithm, self.conv_shape(input_shape),
                        device).total_s

    def counters(self, input_shape: tuple):
        """Counter report for this layer at *input_shape*."""
        return count(self.algorithm, self.conv_shape(input_shape))

    def param_count(self) -> int:
        n = self.weight.size
        if self.bias is not None:
            n += self.bias.size
        return n

    def __repr__(self) -> str:
        extras = ""
        if self.dilation != 1:
            extras += f", d={self.dilation}"
        if self.groups != 1:
            extras += f", g={self.groups}"
        return (f"Conv2d({self.in_channels}, {self.out_channels}, "
                f"k={self.kernel_size}, p={self.padding}, s={self.stride}"
                f"{extras}, algo={self.algorithm.value})")


class ReLU(Layer):
    def forward(self, x):
        return F.relu(x)

    def output_shape(self, input_shape):
        return input_shape

    def __repr__(self):
        return "ReLU()"


class MaxPool2d(Layer):
    def __init__(self, kernel_size: int, stride: int | None = None):
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x):
        return F.max_pool2d(x, self.kernel_size, self.stride)

    def output_shape(self, input_shape):
        n, c, h, w = input_shape
        oh = (h - self.kernel_size) // self.stride + 1
        ow = (w - self.kernel_size) // self.stride + 1
        return (n, c, oh, ow)

    def __repr__(self):
        return f"MaxPool2d(k={self.kernel_size}, s={self.stride})"


class AvgPool2d(MaxPool2d):
    def forward(self, x):
        return F.avg_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self):
        return f"AvgPool2d(k={self.kernel_size}, s={self.stride})"


class BatchNorm2d(Layer):
    """Inference-mode batch norm with fixed running statistics."""

    def __init__(self, channels: int,
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        self.channels = channels
        self.running_mean = rng.standard_normal(channels) * 0.1
        self.running_var = 1.0 + 0.1 * rng.random(channels)
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)

    def forward(self, x):
        return F.batch_norm2d(x, self.running_mean, self.running_var,
                              self.gamma, self.beta)

    def output_shape(self, input_shape):
        return input_shape

    def param_count(self):
        return 2 * self.channels

    def __repr__(self):
        return f"BatchNorm2d({self.channels})"


class Flatten(Layer):
    def forward(self, x):
        return x.reshape(x.shape[0], -1)

    def output_shape(self, input_shape):
        n = input_shape[0]
        flat = int(np.prod(input_shape[1:]))
        return (n, flat)

    def __repr__(self):
        return "Flatten()"


class Linear(Layer):
    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = rng.standard_normal(
            (out_features, in_features)
        ) * np.sqrt(2.0 / in_features)
        self.bias = np.zeros(out_features) if bias else None

    def forward(self, x):
        return F.linear(x, self.weight, self.bias)

    def output_shape(self, input_shape):
        return (input_shape[0], self.out_features)

    def param_count(self):
        n = self.weight.size
        if self.bias is not None:
            n += self.bias.size
        return n

    def __repr__(self):
        return f"Linear({self.in_features}, {self.out_features})"


class _ConvNdBase(Layer):
    """Shared parameter handling for the 1D/3D convolution layers."""

    _NDIM = 1
    _OP = "conv1d"

    def __init__(self, in_channels: int, out_channels: int,
                 kernel_size: int | tuple,
                 padding: int | tuple | str = 0, stride: int | tuple = 1,
                 dilation: int | tuple = 1, groups: int = 1,
                 bias: bool = True,
                 algorithm: ConvAlgorithm | str = ConvAlgorithm.POLYHANKEL,
                 rng: np.random.Generator | None = None):
        from repro.utils.shapes import normalize_tuple

        require(in_channels > 0 and out_channels > 0,
                "channel counts must be positive")
        require(groups >= 1, "groups must be positive")
        require(in_channels % groups == 0 and out_channels % groups == 0,
                f"channels ({in_channels}) and filters ({out_channels}) "
                f"must be divisible by groups ({groups})")
        kernel = normalize_tuple(kernel_size, self._NDIM, "kernel_size")
        require(all(k > 0 for k in kernel), "kernel size must be positive")
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel
        self.padding = padding
        self.stride = stride
        self.dilation = dilation
        self.groups = groups
        self.algorithm = (ConvAlgorithm(algorithm)
                          if isinstance(algorithm, str) else algorithm)
        fan_in = (in_channels // groups) * int(np.prod(kernel))
        self.weight = rng.standard_normal(
            (out_channels, in_channels // groups, *kernel)
        ) * np.sqrt(2.0 / fan_in)
        self.bias = np.zeros(out_channels) if bias else None

    def conv_shape(self, input_shape: tuple):
        from repro.utils.shapes import ConvShapeNd

        return ConvShapeNd.from_tensors(input_shape, self.weight.shape,
                                        self.padding, self.stride,
                                        self.dilation, self.groups)

    def forward(self, x):
        fn = getattr(F, self._OP)
        with span(f"{self._OP}.forward", algorithm=self.algorithm.value,
                  out_channels=self.out_channels):
            return fn(x, self.weight, self.bias, self.padding, self.stride,
                      self.dilation, self.groups, algorithm=self.algorithm)

    def output_shape(self, input_shape):
        return self.conv_shape(input_shape).output_shape()

    def param_count(self):
        n = self.weight.size
        if self.bias is not None:
            n += self.bias.size
        return n

    def __repr__(self):
        return (f"{type(self).__name__}({self.in_channels}, "
                f"{self.out_channels}, k={self.kernel_size}, "
                f"algorithm={self.algorithm.value})")


class Conv1d(_ConvNdBase):
    """1D convolution layer; runs through the 2D engine's packed FFTs."""

    _NDIM = 1
    _OP = "conv1d"


class Conv3d(_ConvNdBase):
    """3D convolution layer (plane-stacked degree map, one 1D FFT)."""

    _NDIM = 3
    _OP = "conv3d"


class ConvTranspose2d(Layer):
    """Transposed 2D convolution layer (generative decoder upsampling).

    Weight follows the PyTorch ``(in_channels, out_channels/groups, kh,
    kw)`` layout; the forward is the adjoint route through the chosen
    algorithm.
    """

    def __init__(self, in_channels: int, out_channels: int,
                 kernel_size: int | tuple,
                 padding: int | tuple = 0, stride: int | tuple = 1,
                 output_padding: int | tuple = 0,
                 dilation: int | tuple = 1, groups: int = 1,
                 bias: bool = True,
                 algorithm: ConvAlgorithm | str = ConvAlgorithm.POLYHANKEL,
                 rng: np.random.Generator | None = None):
        from repro.utils.shapes import normalize_tuple

        require(in_channels > 0 and out_channels > 0,
                "channel counts must be positive")
        require(groups >= 1, "groups must be positive")
        require(in_channels % groups == 0 and out_channels % groups == 0,
                f"channels ({in_channels}) and filters ({out_channels}) "
                f"must be divisible by groups ({groups})")
        kernel = normalize_tuple(kernel_size, 2, "kernel_size")
        require(all(k > 0 for k in kernel), "kernel size must be positive")
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel
        self.padding = padding
        self.stride = stride
        self.output_padding = output_padding
        self.dilation = dilation
        self.groups = groups
        self.algorithm = (ConvAlgorithm(algorithm)
                          if isinstance(algorithm, str) else algorithm)
        fan_in = (in_channels // groups) * int(np.prod(kernel))
        self.weight = rng.standard_normal(
            (in_channels, out_channels // groups, *kernel)
        ) * np.sqrt(2.0 / fan_in)
        self.bias = np.zeros(out_channels) if bias else None

    def forward(self, x):
        with span("conv_transpose2d.forward",
                  algorithm=self.algorithm.value,
                  out_channels=self.out_channels):
            return F.conv_transpose2d(x, self.weight, self.bias,
                                      self.padding, self.stride,
                                      self.output_padding, self.dilation,
                                      self.groups,
                                      algorithm=self.algorithm)

    def output_shape(self, input_shape):
        from repro.baselines.ndops import conv_transpose2d_output_shape

        return conv_transpose2d_output_shape(
            input_shape, self.weight.shape, self.padding, self.stride,
            self.dilation, self.groups, self.output_padding)

    def param_count(self):
        n = self.weight.size
        if self.bias is not None:
            n += self.bias.size
        return n

    def __repr__(self):
        return (f"ConvTranspose2d({self.in_channels}, "
                f"{self.out_channels}, k={self.kernel_size}, "
                f"stride={self.stride}, "
                f"algorithm={self.algorithm.value})")
