package dnn

import (
	"fmt"
	"strconv"
	"strings"
)

// ZooEntry pairs a model with its Table II metadata.
type ZooEntry struct {
	Model *Model

	// Domain is "Vision" or "NLP".
	Domain string

	// Size is the paper's Small/Large classification.
	Size string

	// PaperGradientM is Table II's reported gradient size in millions of
	// parameters, used to validate the reconstruction.
	PaperGradientM float64

	// Dataset is the input dataset name from Table II.
	Dataset string
}

// Zoo returns the full Table II model set in the paper's order.
func Zoo() []ZooEntry {
	resnet18, err := ResNet(18)
	if err != nil {
		panic(err) // depths are compile-time constants here
	}
	resnet50, err := ResNet(50)
	if err != nil {
		panic(err)
	}
	vgg11, err := VGG(11)
	if err != nil {
		panic(err)
	}
	return []ZooEntry{
		{Model: AlexNet(), Domain: "Vision", Size: "Small", PaperGradientM: 9.63, Dataset: "imagenet1k"},
		{Model: MobileNetV2(), Domain: "Vision", Size: "Small", PaperGradientM: 3.4, Dataset: "imagenet1k"},
		{Model: SqueezeNet(), Domain: "Vision", Size: "Small", PaperGradientM: 0.73, Dataset: "imagenet1k"},
		{Model: ShuffleNetV2(), Domain: "Vision", Size: "Small", PaperGradientM: 1.8, Dataset: "imagenet1k"},
		{Model: resnet18, Domain: "Vision", Size: "Small", PaperGradientM: 11.18, Dataset: "imagenet1k"},
		{Model: resnet50, Domain: "Vision", Size: "Large", PaperGradientM: 23.59, Dataset: "imagenet1k"},
		{Model: vgg11, Domain: "Vision", Size: "Large", PaperGradientM: 132.8, Dataset: "imagenet1k"},
		{Model: BERTLarge(), Domain: "NLP", Size: "Large", PaperGradientM: 345, Dataset: "squad2"},
	}
}

// SmallModels returns the paper's five small vision models.
func SmallModels() []*Model {
	var ms []*Model
	for _, e := range Zoo() {
		if e.Size == "Small" {
			ms = append(ms, e.Model)
		}
	}
	return ms
}

// LargeImageModels returns the large vision models (ResNet50, VGG11).
func LargeImageModels() []*Model {
	var ms []*Model
	for _, e := range Zoo() {
		if e.Size == "Large" && e.Domain == "Vision" {
			ms = append(ms, e.Model)
		}
	}
	return ms
}

// ByName returns the zoo model with the given name.
func ByName(name string) (*Model, error) {
	for _, e := range Zoo() {
		if e.Model.Name == name {
			return e.Model, nil
		}
	}
	return nil, fmt.Errorf("dnn: no zoo model %q", name)
}

// Resolve maps a user-supplied model name to a model: any Table II zoo
// entry (ByName) plus resnet<N> (18/34/50/101/152) and vgg<N>
// (11/13/16/19), the depths the §VI-A micro study sweeps. Every model
// it returns resolves again by its own name.
func Resolve(name string) (*Model, error) {
	if m, err := ByName(name); err == nil {
		return m, nil
	}
	if depth, ok := strings.CutPrefix(name, "resnet"); ok {
		if d, err := strconv.Atoi(depth); err == nil {
			return ResNet(d)
		}
	}
	if depth, ok := strings.CutPrefix(name, "vgg"); ok {
		if d, err := strconv.Atoi(depth); err == nil {
			return VGG(d)
		}
	}
	return nil, fmt.Errorf("dnn: unknown model %q", name)
}
