package dnn

import (
	"fmt"
)

// Standard ImageNet input: a decoded 224x224x3 fp32 tensor.
const imageNetSampleBytes = 224 * 224 * 3 * BytesPerParam

// convBuilder accumulates layers of a feed-forward CNN while tracking the
// spatial dimensions of the activation flowing through it.
type convBuilder struct {
	m       *Model
	h, w, c int
}

func newConvBuilder(name, family string) *convBuilder {
	return &convBuilder{
		m: &Model{Name: name, Family: family, SampleBytes: imageNetSampleBytes},
		h: 224, w: 224, c: 3,
	}
}

func outDim(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}

// conv appends a (possibly grouped) convolution with bias and updates the
// tracked dimensions.
func (b *convBuilder) conv(name string, cout, k, stride, pad, groups int) {
	hout := outDim(b.h, k, stride, pad)
	wout := outDim(b.w, k, stride, pad)
	cinPerGroup := b.c / groups
	params := int64(cout)*int64(cinPerGroup)*int64(k)*int64(k) + int64(cout)
	macs := float64(k*k*cinPerGroup) * float64(hout*wout*cout)
	b.m.Layers = append(b.m.Layers, Layer{
		Kind:            KindConv,
		Name:            name,
		Params:          params,
		FwdFLOPs:        2 * macs,
		ActivationBytes: float64(cout*hout*wout) * BytesPerParam,
	})
	b.h, b.w, b.c = hout, wout, cout
}

// bn appends a batch normalization over the current channels.
func (b *convBuilder) bn(name string) {
	elems := float64(b.c * b.h * b.w)
	b.m.Layers = append(b.m.Layers, Layer{
		Kind:            KindBatchNorm,
		Name:            name,
		Params:          2 * int64(b.c),
		FwdFLOPs:        4 * elems,
		ActivationBytes: elems * BytesPerParam,
	})
}

// relu appends an in-place activation (no extra memory retained).
func (b *convBuilder) relu(name string) {
	b.m.Layers = append(b.m.Layers, Layer{
		Kind:     KindActivation,
		Name:     name,
		FwdFLOPs: float64(b.c * b.h * b.w),
	})
}

// add appends a residual addition (no parameters, in-place).
func (b *convBuilder) add(name string) {
	b.m.Layers = append(b.m.Layers, Layer{
		Kind:     KindAdd,
		Name:     name,
		FwdFLOPs: float64(b.c * b.h * b.w),
	})
}

// maxPool appends a pooling layer and updates dimensions.
func (b *convBuilder) maxPool(name string, k, stride, pad int) {
	hout := outDim(b.h, k, stride, pad)
	wout := outDim(b.w, k, stride, pad)
	b.m.Layers = append(b.m.Layers, Layer{
		Kind:            KindPool,
		Name:            name,
		FwdFLOPs:        float64(k * k * b.c * hout * wout),
		ActivationBytes: float64(b.c*hout*wout) * BytesPerParam,
	})
	b.h, b.w = hout, wout
}

// globalPool collapses the spatial dimensions to 1x1.
func (b *convBuilder) globalPool(name string) {
	b.m.Layers = append(b.m.Layers, Layer{
		Kind:            KindPool,
		Name:            name,
		FwdFLOPs:        float64(b.c * b.h * b.w),
		ActivationBytes: float64(b.c) * BytesPerParam,
	})
	b.h, b.w = 1, 1
}

// fc appends a fully connected layer from the flattened activation.
func (b *convBuilder) fc(name string, cout int) {
	cin := b.c * b.h * b.w
	b.m.Layers = append(b.m.Layers, Layer{
		Kind:            KindFC,
		Name:            name,
		Params:          int64(cin)*int64(cout) + int64(cout),
		FwdFLOPs:        2 * float64(cin) * float64(cout),
		ActivationBytes: float64(cout) * BytesPerParam,
	})
	b.h, b.w, b.c = 1, 1, cout
}

// AlexNet returns the paper's AlexNet variant. The convolutional trunk is
// the standard torchvision AlexNet; the classifier is compacted so that
// the total gradient volume matches Table II's 9.63 M parameters (the
// stock 61 M-parameter classifier would be a different workload than the
// one the paper profiled).
func AlexNet() *Model {
	b := newConvBuilder("alexnet", "alexnet")
	b.conv("conv1", 64, 11, 4, 2, 1)
	b.relu("relu1")
	b.maxPool("pool1", 3, 2, 0)
	b.conv("conv2", 192, 5, 1, 2, 1)
	b.relu("relu2")
	b.maxPool("pool2", 3, 2, 0)
	b.conv("conv3", 384, 3, 1, 1, 1)
	b.relu("relu3")
	b.conv("conv4", 256, 3, 1, 1, 1)
	b.relu("relu4")
	b.conv("conv5", 256, 3, 1, 1, 1)
	b.relu("relu5")
	b.maxPool("pool5", 3, 2, 0)
	b.fc("fc6", 700)
	b.relu("relu6")
	b.fc("fc7", 1000)
	return b.m
}

// vggCfgs maps depth to the torchvision layer configuration; 0 marks a
// max-pool.
var vggCfgs = map[int][]int{
	11: {64, 0, 128, 0, 256, 256, 0, 512, 512, 0, 512, 512, 0},
	13: {64, 64, 0, 128, 128, 0, 256, 256, 0, 512, 512, 0, 512, 512, 0},
	16: {64, 64, 0, 128, 128, 0, 256, 256, 256, 0, 512, 512, 512, 0, 512, 512, 512, 0},
	19: {64, 64, 0, 128, 128, 0, 256, 256, 256, 256, 0, 512, 512, 512, 512, 0, 512, 512, 512, 512, 0},
}

// VGG returns the standard VGG-<depth> (11, 13, 16 or 19), 132.8 M
// parameters at depth 11 as in Table II.
func VGG(depth int) (*Model, error) {
	cfg, ok := vggCfgs[depth]
	if !ok {
		return nil, fmt.Errorf("dnn: no VGG-%d; depths are 11/13/16/19", depth)
	}
	b := newConvBuilder(fmt.Sprintf("vgg%d", depth), "vgg")
	ci := 0
	for _, c := range cfg {
		if c == 0 {
			b.maxPool(fmt.Sprintf("pool%d", ci), 2, 2, 0)
			continue
		}
		ci++
		b.conv(fmt.Sprintf("conv%d", ci), c, 3, 1, 1, 1)
		b.relu(fmt.Sprintf("relu%d", ci))
	}
	b.fc("fc1", 4096)
	b.relu("relu_fc1")
	b.fc("fc2", 4096)
	b.relu("relu_fc2")
	b.fc("fc3", 1000)
	return b.m, nil
}

// ResNetOption modifies a ResNet under construction (micro-study knobs of
// §VI-A3).
type ResNetOption func(*resnetConfig)

type resnetConfig struct {
	noBatchNorm bool
	noResidual  bool
}

// ResNetWithoutBatchNorm removes every batch-norm layer; the paper uses
// this to show that fewer layers means fewer synchronization points and
// lower communication stalls.
func ResNetWithoutBatchNorm() ResNetOption {
	return func(c *resnetConfig) { c.noBatchNorm = true }
}

// ResNetWithoutResidual removes the (parameter-free) skip connections;
// the paper uses this to show they have minimal communication impact.
func ResNetWithoutResidual() ResNetOption {
	return func(c *resnetConfig) { c.noResidual = true }
}

// resnetBlocks maps depth to (bottleneck?, blocks per stage).
var resnetBlocks = map[int]struct {
	bottleneck bool
	blocks     [4]int
}{
	18:  {false, [4]int{2, 2, 2, 2}},
	34:  {false, [4]int{3, 4, 6, 3}},
	50:  {true, [4]int{3, 4, 6, 3}},
	101: {true, [4]int{3, 4, 23, 3}},
	152: {true, [4]int{3, 8, 36, 3}},
}

// ResNet returns the standard ResNet-<depth> backbone (18/34/50/101/152).
// Following Table II's parameter accounting, the final ImageNet classifier
// is not included (ResNet18 = 11.18 M, ResNet50 = 23.5 M).
func ResNet(depth int, opts ...ResNetOption) (*Model, error) {
	spec, ok := resnetBlocks[depth]
	if !ok {
		return nil, fmt.Errorf("dnn: no ResNet-%d; depths are 18/34/50/101/152", depth)
	}
	var rc resnetConfig
	for _, o := range opts {
		o(&rc)
	}
	name := fmt.Sprintf("resnet%d", depth)
	if rc.noBatchNorm {
		name += "_nobn"
	}
	if rc.noResidual {
		name += "_nores"
	}
	b := newConvBuilder(name, "resnet")
	maybeBN := func(n string) {
		if !rc.noBatchNorm {
			b.bn(n)
		}
	}
	maybeAdd := func(n string) {
		if !rc.noResidual {
			b.add(n)
		}
	}

	b.conv("conv1", 64, 7, 2, 3, 1)
	maybeBN("bn1")
	b.relu("relu1")
	b.maxPool("pool1", 3, 2, 1)

	stageChannels := [4]int{64, 128, 256, 512}
	for stage := 0; stage < 4; stage++ {
		ch := stageChannels[stage]
		for blk := 0; blk < spec.blocks[stage]; blk++ {
			stride := 1
			if stage > 0 && blk == 0 {
				stride = 2
			}
			prefix := fmt.Sprintf("layer%d.%d", stage+1, blk)
			if spec.bottleneck {
				cout := 4 * ch
				needDS := blk == 0 // expansion or stride change
				b.conv(prefix+".conv1", ch, 1, 1, 0, 1)
				maybeBN(prefix + ".bn1")
				b.relu(prefix + ".relu1")
				b.conv(prefix+".conv2", ch, 3, stride, 1, 1)
				maybeBN(prefix + ".bn2")
				b.relu(prefix + ".relu2")
				b.conv(prefix+".conv3", cout, 1, 1, 0, 1)
				maybeBN(prefix + ".bn3")
				if needDS {
					// Downsample path parameters live on the skip branch;
					// dimensions already reflect the main branch output.
					b.projection(prefix+".downsample", cout, stride, rc.noBatchNorm)
				}
				maybeAdd(prefix + ".add")
				b.relu(prefix + ".relu3")
			} else {
				needDS := blk == 0 && stage > 0
				b.conv(prefix+".conv1", ch, 3, stride, 1, 1)
				maybeBN(prefix + ".bn1")
				b.relu(prefix + ".relu1")
				b.conv(prefix+".conv2", ch, 3, 1, 1, 1)
				maybeBN(prefix + ".bn2")
				if needDS {
					b.projection(prefix+".downsample", ch, stride, rc.noBatchNorm)
				}
				maybeAdd(prefix + ".add")
				b.relu(prefix + ".relu2")
			}
		}
	}
	b.globalPool("avgpool")
	return b.m, nil
}

// projection appends a 1x1 downsample convolution on the residual branch.
// Its input channel count differs from the builder's current (main
// branch) output, so the parameters are computed explicitly; the tracked
// dimensions are left at the main branch output.
func (b *convBuilder) projection(name string, cout, stride int, noBN bool) {
	// The skip branch input had cout/stride... reconstructing exactly is
	// fiddly; the standard identity holds: a stage's first block projects
	// from the previous stage's output channels. Derive it from cout.
	var cin int
	switch {
	case stride == 1: // stage 1 bottleneck expansion: 64 -> 256
		cin = cout / 4
	default: // later stages: previous output is cout/2
		cin = cout / 2
	}
	params := int64(cin)*int64(cout) + int64(cout)
	macs := float64(cin*cout) * float64(b.h*b.w)
	b.m.Layers = append(b.m.Layers, Layer{
		Kind:            KindConv,
		Name:            name,
		Params:          params,
		FwdFLOPs:        2 * macs,
		ActivationBytes: float64(cout*b.h*b.w) * BytesPerParam,
	})
	if !noBN {
		elems := float64(cout * b.h * b.w)
		b.m.Layers = append(b.m.Layers, Layer{
			Kind:            KindBatchNorm,
			Name:            name + ".bn",
			Params:          2 * int64(cout),
			FwdFLOPs:        4 * elems,
			ActivationBytes: elems * BytesPerParam,
		})
	}
}

// MobileNetV2 returns the standard 3.5 M-parameter MobileNet-v2.
func MobileNetV2() *Model {
	b := newConvBuilder("mobilenet_v2", "mobilenet")
	b.conv("conv1", 32, 3, 2, 1, 1)
	b.bn("bn1")
	b.relu("relu1")

	// (expansion t, output channels c, repeats n, first stride s)
	blocks := []struct{ t, c, n, s int }{
		{1, 16, 1, 1},
		{6, 24, 2, 2},
		{6, 32, 3, 2},
		{6, 64, 4, 2},
		{6, 96, 3, 1},
		{6, 160, 3, 2},
		{6, 320, 1, 1},
	}
	bi := 0
	for _, blk := range blocks {
		for r := 0; r < blk.n; r++ {
			bi++
			stride := 1
			if r == 0 {
				stride = blk.s
			}
			cin := b.c
			prefix := fmt.Sprintf("block%d", bi)
			hidden := blk.t * cin
			if blk.t != 1 {
				b.conv(prefix+".expand", hidden, 1, 1, 0, 1)
				b.bn(prefix + ".expand_bn")
				b.relu(prefix + ".expand_relu")
			}
			b.conv(prefix+".dw", hidden, 3, stride, 1, hidden)
			b.bn(prefix + ".dw_bn")
			b.relu(prefix + ".dw_relu")
			b.conv(prefix+".project", blk.c, 1, 1, 0, 1)
			b.bn(prefix + ".project_bn")
			if stride == 1 && cin == blk.c {
				b.add(prefix + ".add")
			}
		}
	}
	b.conv("conv_last", 1280, 1, 1, 0, 1)
	b.bn("bn_last")
	b.relu("relu_last")
	b.globalPool("avgpool")
	b.fc("classifier", 1000)
	return b.m
}

// SqueezeNet returns SqueezeNet 1.1. Per Table II's 0.73 M parameter
// accounting, the 1000-way classifier convolution is not included (the
// fire-module trunk alone is 0.72 M parameters).
func SqueezeNet() *Model {
	b := newConvBuilder("squeezenet1_1", "squeezenet")
	b.conv("conv1", 64, 3, 2, 0, 1)
	b.relu("relu1")
	b.maxPool("pool1", 3, 2, 0)
	fire := func(name string, squeeze, expand int) {
		b.conv(name+".squeeze", squeeze, 1, 1, 0, 1)
		b.relu(name + ".squeeze_relu")
		// The two expand branches (1x1 and 3x3) run on the squeezed input
		// and concatenate. Model them as two convs from the squeezed
		// channels, then set channels to the concatenated width.
		h, w := b.h, b.w
		sIn := b.c
		b.conv(name+".expand1x1", expand, 1, 1, 0, 1)
		b.h, b.w, b.c = h, w, sIn // rewind to squeezed input for the 3x3 branch
		b.conv(name+".expand3x3", expand, 3, 1, 1, 1)
		b.c = 2 * expand // concat
		b.relu(name + ".expand_relu")
	}
	fire("fire2", 16, 64)
	fire("fire3", 16, 64)
	b.maxPool("pool3", 3, 2, 0)
	fire("fire4", 32, 128)
	fire("fire5", 32, 128)
	b.maxPool("pool5", 3, 2, 0)
	fire("fire6", 48, 192)
	fire("fire7", 48, 192)
	fire("fire8", 64, 256)
	fire("fire9", 64, 256)
	b.globalPool("avgpool")
	return b.m
}

// ShuffleNetV2 returns the standard ShuffleNet-v2 x1.0 (2.3 M parameters
// end to end; Table II reports 1.8 M, which matches the v1 parameter
// count -- the difference is immaterial at this model scale).
func ShuffleNetV2() *Model {
	b := newConvBuilder("shufflenet_v2", "shufflenet")
	b.conv("conv1", 24, 3, 2, 1, 1)
	b.bn("bn1")
	b.relu("relu1")
	b.maxPool("pool1", 3, 2, 1)

	unit := func(name string, cout int, down bool) {
		cin := b.c
		h, w := b.h, b.w
		branch := cout / 2
		if down {
			// Downsample unit: both branches process the full input.
			// Branch 1: dw conv + 1x1.
			b.conv(name+".b1_dw", cin, 3, 2, 1, cin)
			b.bn(name + ".b1_dw_bn")
			b.conv(name+".b1_pw", branch, 1, 1, 0, 1)
			b.bn(name + ".b1_pw_bn")
			b.relu(name + ".b1_relu")
			// Branch 2 from the original input.
			b.h, b.w, b.c = h, w, cin
			b.conv(name+".b2_pw1", branch, 1, 1, 0, 1)
			b.bn(name + ".b2_pw1_bn")
			b.relu(name + ".b2_relu1")
			b.conv(name+".b2_dw", branch, 3, 2, 1, branch)
			b.bn(name + ".b2_dw_bn")
			b.conv(name+".b2_pw2", branch, 1, 1, 0, 1)
			b.bn(name + ".b2_pw2_bn")
			b.relu(name + ".b2_relu2")
			b.c = cout // concat
		} else {
			// Basic unit: channel split, one branch transformed.
			b.c = cin / 2
			b.conv(name+".pw1", branch, 1, 1, 0, 1)
			b.bn(name + ".pw1_bn")
			b.relu(name + ".relu1")
			b.conv(name+".dw", branch, 3, 1, 1, branch)
			b.bn(name + ".dw_bn")
			b.conv(name+".pw2", branch, 1, 1, 0, 1)
			b.bn(name + ".pw2_bn")
			b.relu(name + ".relu2")
			b.c = cout // concat with the untouched half
		}
	}
	stages := []struct{ cout, repeat int }{{116, 4}, {232, 8}, {464, 4}}
	for si, st := range stages {
		for r := 0; r < st.repeat; r++ {
			unit(fmt.Sprintf("stage%d.%d", si+2, r), st.cout, r == 0)
		}
	}
	b.conv("conv5", 1024, 1, 1, 0, 1)
	b.bn("bn5")
	b.relu("relu5")
	b.globalPool("avgpool")
	b.fc("fc", 1000)
	return b.m
}
