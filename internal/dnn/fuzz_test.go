package dnn

import (
	"os"
	"regexp"
	"testing"
)

// FuzzResolve feeds arbitrary model names through Resolve, seeded with
// every model name docs/API.md's request bodies use. Resolve must not
// panic, and a resolved model's own name must resolve to the same model.
func FuzzResolve(f *testing.F) {
	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`"model":\s*"([^"]*)"`).FindAllStringSubmatch(string(doc), -1) {
		f.Add(m[1])
	}
	for _, seed := range []string{"resnet018", "resnet+50", "vgg-1", "densenet99999999999", "bert-base", ""} {
		f.Add(seed)
	}
	// Names outside the paper's models must fail cleanly; resnext50 and
	// wide_resnet50 once returned models named resnext50_32x4d and
	// wide_resnet50_2, which did not resolve back. resnet50 is kept.
	for _, seed := range []string{"resnext50", "wide_resnet50", "densenet121", "gpt2-small", "resnet50"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		m, err := Resolve(name)
		if err != nil {
			return
		}
		if m == nil || m.TotalParams() <= 0 {
			t.Fatalf("Resolve(%q) = %v, nil", name, m)
		}
		again, err := Resolve(m.Name)
		if err != nil || again.Name != m.Name || again.TotalParams() != m.TotalParams() {
			t.Fatalf("Resolve(%q) is %s, which does not resolve back to itself (%v)", name, m.Name, err)
		}
	})
}
