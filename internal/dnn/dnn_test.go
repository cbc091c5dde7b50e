package dnn

import (
	"math"
	"testing"
	"testing/quick"
)

// paramTolerance is the acceptable relative deviation from Table II's
// gradient sizes (our reconstructions are exact module graphs, but the
// paper's accounting of classifier heads varies by model).
const paramTolerance = 0.08

func TestZooMatchesTableII(t *testing.T) {
	for _, e := range Zoo() {
		gotM := float64(e.Model.TotalParams()) / 1e6
		tol := paramTolerance
		if e.Model.Family == "shufflenet" {
			// Table II's 1.8 M matches ShuffleNet v1; our faithful v2
			// build is 2.3 M (documented in EXPERIMENTS.md).
			tol = 0.30
		}
		if rel := math.Abs(gotM-e.PaperGradientM) / e.PaperGradientM; rel > tol {
			t.Errorf("%s: params = %.2fM, Table II says %.2fM (rel err %.1f%% > %.0f%%)",
				e.Model.Name, gotM, e.PaperGradientM, rel*100, tol*100)
		}
		if err := e.Model.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", e.Model.Name, err)
		}
	}
}

func TestZooFLOPsSanity(t *testing.T) {
	// Published forward GMACs (x2 = our FLOPs) for the 224x224 models.
	wantGMACs := map[string]float64{
		"alexnet":       0.66, // compact-classifier variant: conv trunk dominates
		"mobilenet_v2":  0.32,
		"squeezenet1_1": 0.35,
		"shufflenet_v2": 0.15,
		"resnet18":      1.82,
		"resnet50":      4.09,
		"vgg11":         7.6,
	}
	for _, e := range Zoo() {
		want, ok := wantGMACs[e.Model.Name]
		if !ok {
			continue
		}
		gotGMACs := e.Model.FwdFLOPsPerSample() / 2 / 1e9
		if rel := math.Abs(gotGMACs-want) / want; rel > 0.25 {
			t.Errorf("%s: fwd = %.2f GMACs, published %.2f (rel err %.0f%%)",
				e.Model.Name, gotGMACs, want, rel*100)
		}
	}
}

func TestBERTLargeShape(t *testing.T) {
	m := BERTLarge()
	gotM := float64(m.TotalParams()) / 1e6
	if gotM < 330 || gotM > 360 {
		t.Errorf("BERT-large params = %.1fM, want ~345M", gotM)
	}
	// 24 encoder blocks x 8 param layers + embeddings + ln + head.
	if l := m.NumParamLayers(); l < 24*8 || l > 24*9+4 {
		t.Errorf("BERT-large param layers = %d, want ~200", l)
	}
	// Forward FLOPs should be in the hundreds of GFLOPs at seq 384.
	if gf := m.FwdFLOPsPerSample() / 1e9; gf < 180 || gf > 400 {
		t.Errorf("BERT-large fwd = %.0f GFLOPs/sample, want 180-400", gf)
	}
}

func TestResNetDepthFamily(t *testing.T) {
	var prevParams int64
	var prevLayers int
	for _, depth := range []int{18, 34, 50, 101, 152} {
		m, err := ResNet(depth)
		if err != nil {
			t.Fatalf("ResNet(%d): %v", depth, err)
		}
		if m.TotalParams() <= prevParams {
			t.Errorf("ResNet%d params %d not > ResNet previous %d", depth, m.TotalParams(), prevParams)
		}
		if m.NumParamLayers() <= prevLayers {
			t.Errorf("ResNet%d layer count %d not > previous %d", depth, m.NumParamLayers(), prevLayers)
		}
		prevParams, prevLayers = m.TotalParams(), m.NumParamLayers()
	}
}

func TestResNetKnownParamCounts(t *testing.T) {
	// Backbone (no classifier) counts: torchvision totals minus fc.
	want := map[int]float64{18: 11.18, 34: 21.28, 50: 23.51, 101: 42.50, 152: 58.14}
	for depth, wantM := range want {
		m, err := ResNet(depth)
		if err != nil {
			t.Fatalf("ResNet(%d): %v", depth, err)
		}
		gotM := float64(m.TotalParams()) / 1e6
		if rel := math.Abs(gotM-wantM) / wantM; rel > 0.03 {
			t.Errorf("ResNet%d params = %.2fM, want %.2fM", depth, gotM, wantM)
		}
	}
}

func TestResNetInvalidDepth(t *testing.T) {
	if _, err := ResNet(99); err == nil {
		t.Error("ResNet(99) should fail")
	}
}

func TestResNetWithoutBatchNorm(t *testing.T) {
	full, err := ResNet(50)
	if err != nil {
		t.Fatal(err)
	}
	noBN, err := ResNet(50, ResNetWithoutBatchNorm())
	if err != nil {
		t.Fatal(err)
	}
	if noBN.NumParamLayers() >= full.NumParamLayers() {
		t.Errorf("no-BN layers %d not < full %d", noBN.NumParamLayers(), full.NumParamLayers())
	}
	// BN params are tiny: total params barely change.
	rel := float64(full.TotalParams()-noBN.TotalParams()) / float64(full.TotalParams())
	if rel < 0 || rel > 0.01 {
		t.Errorf("removing BN changed params by %.2f%%, want < 1%%", rel*100)
	}
	// Roughly half the sync points disappear (conv+bn pairs -> conv).
	if ratio := float64(noBN.NumParamLayers()) / float64(full.NumParamLayers()); ratio > 0.6 {
		t.Errorf("no-BN layer ratio = %.2f, want ~0.5", ratio)
	}
	if noBN.Name != "resnet50_nobn" {
		t.Errorf("name = %q", noBN.Name)
	}
}

func TestResNetWithoutResidual(t *testing.T) {
	full, err := ResNet(18)
	if err != nil {
		t.Fatal(err)
	}
	noRes, err := ResNet(18, ResNetWithoutResidual())
	if err != nil {
		t.Fatal(err)
	}
	// Residual connections carry no parameters: identical gradient volume
	// and sync points (paper §VI-A3: "minimal impact").
	if full.TotalParams() != noRes.TotalParams() {
		t.Errorf("params changed: %d -> %d", full.TotalParams(), noRes.TotalParams())
	}
	if full.NumParamLayers() != noRes.NumParamLayers() {
		t.Error("param layer count changed by removing residuals")
	}
	adds := 0
	for _, l := range noRes.Layers {
		if l.Kind == KindAdd {
			adds++
		}
	}
	if adds != 0 {
		t.Errorf("%d Add layers remain", adds)
	}
}

func TestVGGFamily(t *testing.T) {
	var prevParams int64
	for _, depth := range []int{11, 13, 16, 19} {
		m, err := VGG(depth)
		if err != nil {
			t.Fatalf("VGG(%d): %v", depth, err)
		}
		if m.NumParamLayers() != depth {
			t.Errorf("VGG%d has %d param layers, want %d", depth, m.NumParamLayers(), depth)
		}
		if m.TotalParams() <= prevParams {
			t.Errorf("VGG%d params not increasing", depth)
		}
		prevParams = m.TotalParams()
	}
	if _, err := VGG(12); err == nil {
		t.Error("VGG(12) should fail")
	}
}

func TestVGG11KnownParams(t *testing.T) {
	m, err := VGG(11)
	if err != nil {
		t.Fatal(err)
	}
	gotM := float64(m.TotalParams()) / 1e6
	if gotM < 131 || gotM > 134.5 {
		t.Errorf("VGG11 params = %.2fM, want ~132.9M", gotM)
	}
}

func TestVGGvsResNetCommunicationProfile(t *testing.T) {
	// The §VI-A2 contrast: VGG has few layers and many gradients; ResNet
	// has many layers and few gradients.
	vgg, err := VGG(16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ResNet(152)
	if err != nil {
		t.Fatal(err)
	}
	if vgg.TotalParams() <= 2*res.TotalParams() {
		t.Errorf("VGG16 grads (%dM) should dwarf ResNet152 (%dM)",
			vgg.TotalParams()/1e6, res.TotalParams()/1e6)
	}
	if res.NumParamLayers() <= 10*vgg.NumParamLayers() {
		t.Errorf("ResNet152 layers (%d) should dwarf VGG16 (%d)",
			res.NumParamLayers(), vgg.NumParamLayers())
	}
}

func TestGradientBytes(t *testing.T) {
	m, err := ResNet(18)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.GradientBytes(), float64(m.TotalParams())*4; got != want {
		t.Errorf("GradientBytes = %v, want %v", got, want)
	}
}

func TestTrainingMemoryAndMaxBatch(t *testing.T) {
	m, err := ResNet(50)
	if err != nil {
		t.Fatal(err)
	}
	const v100Mem = 16e9
	if mem := m.TrainingMemoryBytes(32); mem >= v100Mem {
		t.Errorf("ResNet50 bs32 memory = %.1f GB, should fit a 16 GB V100", mem/1e9)
	}
	mb := m.MaxBatch(v100Mem)
	if mb < 32 || mb > 256 {
		t.Errorf("ResNet50 MaxBatch(16GB) = %d, want tens-to-low-hundreds", mb)
	}
	// Memory grows with batch.
	if m.TrainingMemoryBytes(64) <= m.TrainingMemoryBytes(32) {
		t.Error("memory not increasing with batch")
	}
}

func TestBERTMaxBatchIsSmall(t *testing.T) {
	m := BERTLarge()
	mb := m.MaxBatch(16e9)
	// The paper trains BERT-large at batch 4 on 16 GB V100s as "the
	// maximum size that allows the resultant data to fit".
	if mb < 3 || mb > 8 {
		t.Errorf("BERT-large MaxBatch(16GB) = %d, want 3..8", mb)
	}
	if mb32 := m.MaxBatch(32e9); mb32 <= mb {
		t.Errorf("MaxBatch(32GB) = %d not > MaxBatch(16GB) = %d", mb32, mb)
	}
}

func TestMaxBatchZeroWhenTooSmall(t *testing.T) {
	m := BERTLarge()
	if mb := m.MaxBatch(1e9); mb != 0 {
		t.Errorf("MaxBatch(1GB) = %d, want 0", mb)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		m    *Model
	}{
		{"no name", &Model{}},
		{"no layers", &Model{Name: "x"}},
		{"negative", &Model{Name: "x", Layers: []Layer{{Name: "l", Params: -1}}}},
		{"no params", &Model{Name: "x", Layers: []Layer{{Name: "l", Kind: KindPool}}}},
	}
	for _, tc := range cases {
		if err := tc.m.Validate(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("resnet18")
	if err != nil || m.Name != "resnet18" {
		t.Errorf("ByName(resnet18) = %v, %v", m, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) should fail")
	}
}

// TestResolve pins the model names the CLI and stashd accept: the
// Table II zoo and the §VI-A micro-study depths, and nothing else.
func TestResolve(t *testing.T) {
	accept := []string{
		"alexnet", "mobilenet_v2", "squeezenet1_1", "shufflenet_v2", "resnet18", "resnet50", "vgg11", "bert-large",
		"resnet34", "resnet101", "resnet152", "vgg13", "vgg16", "vgg19",
	}
	for _, name := range accept {
		m, err := Resolve(name)
		if err != nil {
			t.Errorf("Resolve(%s): %v", name, err)
		} else if m.Name != name {
			t.Errorf("Resolve(%s) is named %s", name, m.Name)
		}
	}
	reject := []string{
		"densenet121", "densenet169", "densenet201", "resnext50", "wide_resnet50", "bert-base", "gpt2-small",
		"resnet7", "vggX", "nothing", "densenet7",
	}
	for _, name := range reject {
		if _, err := Resolve(name); err == nil {
			t.Errorf("Resolve(%s) should fail", name)
		}
	}
}

func TestSmallAndLargeSelections(t *testing.T) {
	if got := len(SmallModels()); got != 5 {
		t.Errorf("SmallModels = %d, want 5", got)
	}
	large := LargeImageModels()
	if len(large) != 2 {
		t.Fatalf("LargeImageModels = %d, want 2", len(large))
	}
	if large[0].Name != "resnet50" || large[1].Name != "vgg11" {
		t.Errorf("large models = %s, %s", large[0].Name, large[1].Name)
	}
}

func TestLayerKindString(t *testing.T) {
	if KindConv.String() != "Conv" || KindAttention.String() != "Attention" {
		t.Error("LayerKind strings wrong")
	}
	if LayerKind(99).String() != "LayerKind(99)" {
		t.Error("unknown LayerKind string wrong")
	}
}

func TestModelString(t *testing.T) {
	m, err := ResNet(18)
	if err != nil {
		t.Fatal(err)
	}
	s := m.String()
	if s == "" || len(s) < 10 {
		t.Errorf("String() = %q", s)
	}
}

// Property: for every zoo model, aggregate quantities equal the sum over
// layers (no double counting in the helpers).
func TestQuickAggregatesConsistent(t *testing.T) {
	for _, e := range Zoo() {
		m := e.Model
		var params int64
		var flops, acts float64
		for _, l := range m.Layers {
			params += l.Params
			flops += l.FwdFLOPs
			acts += l.ActivationBytes
		}
		if params != m.TotalParams() {
			t.Errorf("%s: param sum mismatch", m.Name)
		}
		if flops != m.FwdFLOPsPerSample() {
			t.Errorf("%s: FLOP sum mismatch", m.Name)
		}
		if acts != m.ActivationBytesPerSample() {
			t.Errorf("%s: activation sum mismatch", m.Name)
		}
	}
}

// Property: training memory is affine and increasing in batch size.
func TestQuickMemoryAffineInBatch(t *testing.T) {
	m, err := ResNet(18)
	if err != nil {
		t.Fatal(err)
	}
	f := func(b1Raw, b2Raw uint8) bool {
		b1, b2 := int(b1Raw)+1, int(b2Raw)+1
		m1, m2 := m.TrainingMemoryBytes(b1), m.TrainingMemoryBytes(b2)
		perSample := m.ActivationBytesPerSample() + m.SampleBytes
		want := float64(b2-b1) * perSample
		return math.Abs((m2-m1)-want) < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
