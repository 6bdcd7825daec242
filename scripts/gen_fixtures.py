"""Generate the bundled graph fixtures.

Builds the MobileNetV1-224 description (width 1.0, 1000 classes), the
5-layer desk-scale CNN, and a small residual graph, then sanity-checks the
headline byte counts before writing JSON into OUT_DIR (default
src/mcuq/fixtures/).

Usage: python scripts/gen_fixtures.py [OUT_DIR]
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mcuq.graph_ir import LayerSpec, NetworkGraph, save_graph
from mcuq.memory_model import all_uniform_policy, footprint


class Builder:
    def __init__(self, resolution, width_multiplier=1.0):
        self.layers = []
        self.resolution = resolution
        self.width = width_multiplier
        self.next_id = 0

    def _add(self, **kw):
        layer = LayerSpec(id=self.next_id, **kw)
        self.layers.append(layer)
        self.next_id += 1
        return layer

    def input(self, c, h, w):
        return self._add(kind="input", input_ids=(), out_channels=c, kernel_h=0,
                         kernel_w=0, stride=1, padding=0, input_shape=(c, h, w),
                         output_shape=(c, h, w), param_count=0, bias_count=0)

    def conv(self, src, cout, k, stride, padding, kind="conv2d", bias_factor=3):
        cin, h, w = src.output_shape
        oh = (h + 2 * padding - k) // stride + 1
        ow = (w + 2 * padding - k) // stride + 1
        if kind == "depthwise_conv2d":
            params = cin * k * k
            cout = cin
        elif kind == "pointwise_conv2d":
            params = cin * cout
        else:
            params = cin * cout * k * k
        return self._add(kind=kind, input_ids=(src.id,), out_channels=cout,
                         kernel_h=k, kernel_w=k, stride=stride, padding=padding,
                         input_shape=(cin, h, w), output_shape=(cout, oh, ow),
                         param_count=params, bias_count=bias_factor * cout)

    def avg_pool(self, src, k):
        cin, h, w = src.output_shape
        oh = (h - k) // k + 1
        return self._add(kind="avg_pool", input_ids=(src.id,), out_channels=cin,
                         kernel_h=k, kernel_w=k, stride=k, padding=0,
                         input_shape=(cin, h, w), output_shape=(cin, oh, oh),
                         param_count=0, bias_count=0)

    def fc(self, src, classes):
        cin, h, w = src.output_shape
        return self._add(kind="fully_connected", input_ids=(src.id,),
                         out_channels=classes, kernel_h=0, kernel_w=0, stride=1,
                         padding=0, input_shape=(cin, h, w),
                         output_shape=(classes, 1, 1),
                         param_count=cin * h * w * classes, bias_count=classes)

    def add(self, a, b):
        shape = a.output_shape
        return self._add(kind="add_residual", input_ids=(a.id, b.id),
                         out_channels=shape[0], kernel_h=0, kernel_w=0, stride=1,
                         padding=0, input_shape=shape, output_shape=shape,
                         param_count=0, bias_count=0)

    def relu_clip(self, src):
        shape = src.output_shape
        return self._add(kind="relu_clip", input_ids=(src.id,),
                         out_channels=shape[0], kernel_h=0, kernel_w=0, stride=1,
                         padding=0, input_shape=shape, output_shape=shape,
                         param_count=0, bias_count=0)

    def output(self, src):
        shape = src.output_shape
        return self._add(kind="output", input_ids=(src.id,), out_channels=shape[0],
                         kernel_h=0, kernel_w=0, stride=1, padding=0,
                         input_shape=shape, output_shape=shape,
                         param_count=0, bias_count=0)

    def graph(self):
        return NetworkGraph(layers=tuple(self.layers), resolution=self.resolution,
                            width_multiplier=self.width)


def mobilenet_v1(resolution=224, classes=1000):
    # (stride of the depthwise, pointwise out channels) per dw/pw pair
    pairs = [(1, 64), (2, 128), (1, 128), (2, 256), (1, 256), (2, 512),
             (1, 512), (1, 512), (1, 512), (1, 512), (1, 512),
             (2, 1024), (1, 1024)]
    b = Builder(resolution)
    t = b.input(3, resolution, resolution)
    t = b.conv(t, 32, k=3, stride=2, padding=1)
    for stride, cout in pairs:
        t = b.conv(t, 0, k=3, stride=stride, padding=1, kind="depthwise_conv2d")
        t = b.conv(t, cout, k=1, stride=1, padding=0, kind="pointwise_conv2d")
    t = b.avg_pool(t, k=7)
    t = b.fc(t, classes)
    b.output(t)
    return b.graph()


def toy_cnn():
    b = Builder(28)
    t = b.input(1, 28, 28)
    t = b.conv(t, 4, k=3, stride=2, padding=1, bias_factor=1)
    t = b.conv(t, 16, k=3, stride=2, padding=1, bias_factor=1)
    t = b.conv(t, 24, k=3, stride=1, padding=1, bias_factor=1)
    t = b.conv(t, 32, k=3, stride=2, padding=1, bias_factor=1)
    t = b.avg_pool(t, k=4)
    t = b.fc(t, 10)
    b.output(t)
    return b.graph()


def toy_residual():
    b = Builder(8)
    t0 = b.input(3, 8, 8)
    c1 = b.conv(t0, 8, k=3, stride=1, padding=1, bias_factor=1)
    c2 = b.conv(c1, 8, k=3, stride=1, padding=1, bias_factor=1)
    s = b.add(c2, c1)
    r = b.relu_clip(s)
    p = b.avg_pool(r, k=8)
    f = b.fc(p, 5)
    b.output(f)
    return b.graph()


def main(out_dir=os.path.join(os.path.dirname(__file__), "..", "src", "mcuq", "fixtures")):
    os.makedirs(out_dir, exist_ok=True)

    mn = mobilenet_v1()
    n_params = sum(l.param_count for l in mn.weighted_layers())
    n_bias = sum(l.bias_count for l in mn.weighted_layers())
    assert n_params == 4_209_088, n_params
    assert n_params + n_bias == 4_242_920, n_params + n_bias
    fp32 = 4 * (n_params + n_bias)
    assert fp32 == 16_971_680, fp32
    rep8 = footprint(mn, all_uniform_policy(mn))
    assert rep8.rom_total > 2 * 1024 * 1024, rep8.rom_total
    save_graph(mn, os.path.join(out_dir, "mobilenet_v1_224_100.json"))
    print(f"mobilenet_v1_224_100: params {n_params}, with bias {n_params + n_bias}, "
          f"fp32 {fp32} B, all-8 ROM {rep8.rom_total} B")

    toy = toy_cnn()
    rep = footprint(toy, all_uniform_policy(toy))
    assert rep.rom_total == 12_332, rep.rom_total
    assert rep.ram_peak == 1_960, rep.ram_peak
    save_graph(toy, os.path.join(out_dir, "toycnn_mnist.json"))
    print(f"toycnn_mnist: all-8 ROM {rep.rom_total} B, RAM peak {rep.ram_peak} B")

    res = toy_residual()
    save_graph(res, os.path.join(out_dir, "toy_residual.json"))
    rep = footprint(res, all_uniform_policy(res))
    print(f"toy_residual: all-8 ROM {rep.rom_total} B, RAM peak {rep.ram_peak} B")


if __name__ == "__main__":
    main(*sys.argv[1:])
