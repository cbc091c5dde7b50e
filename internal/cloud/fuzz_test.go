package cloud

import (
	"os"
	"regexp"
	"testing"
)

// FuzzByName feeds arbitrary instance names through ByName, seeded with
// every instance name docs/API.md's request bodies use. A found entry
// must carry the name it was looked up by.
func FuzzByName(f *testing.F) {
	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`"instance":\s*"([^"]*)"`).FindAllStringSubmatch(string(doc), -1) {
		f.Add(m[1])
	}
	f.Add("P3.2XLARGE")
	f.Add("")
	f.Fuzz(func(t *testing.T, name string) {
		it, err := ByName(name)
		if err != nil {
			return
		}
		if it.Name != name || it.NGPUs < 1 {
			t.Fatalf("ByName(%q) = %s with %d GPUs", name, it.Name, it.NGPUs)
		}
	})
}
