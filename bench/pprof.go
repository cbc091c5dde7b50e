package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"
)

// stack is one CPU-profile sample: its function names, innermost frame
// first, and how many samples share it.
type stack struct {
	Frames []string
	Count  int64
}

// layers are the cpu_share buckets, in report order: the module's
// layers, then samples with no module frame (runtime: GC and scheduler;
// stdlib: everything else, mostly net/http and encoding/json), then
// module code outside the simulator stack (the audit, the cluster
// layer, this benchmark's own child glue).
var layers = []string{
	"sim", "simnet", "collective", "pipeline", "train", "core", "experiments",
	"report", "api", "model", "runtime", "stdlib", "other",
}

// modelPackages make up the "model" layer: the catalog, topology,
// hardware, network zoo and workload descriptions.
var modelPackages = map[string]bool{"cloud": true, "topo": true, "hw": true, "dnn": true, "workload": true}

// funcPackage is the import path of a symbol name such as
// "stash/internal/simnet.(*Network).recompute" or "runtime.mallocgc".
// Type arguments and receivers can hold slashes of their own, so the
// path ends at the first dot after the last slash before them.
func funcPackage(name string) string {
	head := name
	if i := strings.IndexAny(head, "[("); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(head[slash+1:], '.')
	if dot < 0 {
		return head
	}
	return head[:slash+1+dot]
}

// moduleLayer maps a module package to its layer; ok is false for a
// package outside the module. The benchmark's own binary is package
// main.
func moduleLayer(pkg string) (layer string, ok bool) {
	if pkg == "main" {
		return "other", true
	}
	rest, ok := strings.CutPrefix(pkg, "stash/")
	if !ok {
		return "", false
	}
	name := strings.TrimPrefix(rest, "internal/")
	switch {
	case modelPackages[name]:
		return "model", true
	case name == "sim" || name == "simnet" || name == "collective" || name == "pipeline" ||
		name == "train" || name == "core" || name == "experiments" || name == "report" || name == "api":
		return name, true
	}
	return "other", true
}

// isRuntime reports whether pkg is part of the Go runtime proper.
func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// layerOf charges a sample to the layer of its innermost module frame,
// so a standard-library or runtime call (time.Duration.Seconds,
// mallocgc) counts against the layer that made it. A sample with no
// module frame is runtime when every frame is the runtime's own, and
// stdlib otherwise.
func layerOf(frames []string) string {
	allRuntime := true
	for _, f := range frames {
		pkg := funcPackage(f)
		if l, ok := moduleLayer(pkg); ok {
			return l
		}
		if !isRuntime(pkg) {
			allRuntime = false
		}
	}
	if allRuntime {
		return "runtime"
	}
	return "stdlib"
}

// layerCounts charges each sample to its layer.
func layerCounts(stacks []stack) map[string]int64 {
	counts := make(map[string]int64, len(layers))
	for _, s := range stacks {
		counts[layerOf(s.Frames)] += s.Count
	}
	return counts
}

// readProfile decodes a gzipped pprof CPU profile into its stacks. It
// reads only what attribution needs: samples, locations (with inlined
// frames), functions and the string table.
func readProfile(path string) ([]stack, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	p, err := decodeProfile(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// decodeProfile decodes an uncompressed profile.proto message.
func decodeProfile(data []byte) ([]stack, error) {
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = make(map[uint64]int64)    // function id -> name string index
		locs    = make(map[uint64][]uint64) // location id -> function ids, innermost first
	)
	err := eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var values []uint64
			if err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, w, v, b)
				case 2:
					values = appendPacked(values, w, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 { // a CPU profile's first value is the sample count
				s.count = int64(values[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			if err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		var frames []string
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				if i := funcs[fid]; i >= 0 && int(i) < len(strs) {
					frames = append(frames, strs[i])
				}
			}
		}
		out = append(out, stack{Frames: frames, Count: s.count})
	}
	return out, nil
}

// appendPacked appends a repeated varint field's values, whether the
// encoder packed them (wire type 2) or not.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		tag, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("profile: bad tag")
		}
		data = data[n:]
		field, wire := int(tag>>3), int(tag&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint in field %d", field)
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return fmt.Errorf("profile: short fixed64 in field %d", field)
			}
			v = binary.LittleEndian.Uint64(data)
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return fmt.Errorf("profile: bad length in field %d", field)
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return fmt.Errorf("profile: short fixed32 in field %d", field)
			}
			v = uint64(binary.LittleEndian.Uint32(data))
			data = data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
