package collective

import (
	"fmt"

	"stash/internal/dnn"
)

// Bucket is one gradient synchronization unit: the gradients of one or
// more consecutive (in backward order) parameter layers, all-reduced in a
// single collective call.
type Bucket struct {
	// Bytes is the gradient payload.
	Bytes float64

	// Layers holds the model layer indices whose gradients the bucket
	// carries, in backward-pass order.
	Layers []int
}

// PerLayerBuckets returns one bucket per parameter layer in backward
// order. This is the synchronization granularity of the paper's §VI-A2
// model: L sync points of G/L bytes each.
func PerLayerBuckets(m *dnn.Model) []Bucket {
	n := 0
	for _, l := range m.Layers {
		if l.Params != 0 {
			n++
		}
	}
	// Every bucket's Layers is a one-element window of one array.
	buckets, layers := make([]Bucket, 0, n), make([]int, 0, n)
	for i := len(m.Layers) - 1; i >= 0; i-- {
		l := m.Layers[i]
		if l.Params == 0 {
			continue
		}
		layers = append(layers, i)
		k := len(layers)
		buckets = append(buckets, Bucket{Bytes: l.GradientBytes(), Layers: layers[k-1 : k : k]})
	}
	return buckets
}

// SizedBuckets coalesces parameter layers in backward order into buckets
// of at least maxBytes (PyTorch DDP's bucket_cap_mb behavior, 25 MB by
// default). Used by the bucketing ablation bench.
func SizedBuckets(m *dnn.Model, maxBytes float64) ([]Bucket, error) {
	if maxBytes <= 0 {
		return nil, fmt.Errorf("collective: bucket size %v <= 0", maxBytes)
	}
	var buckets []Bucket
	var cur Bucket
	for i := len(m.Layers) - 1; i >= 0; i-- {
		l := m.Layers[i]
		if l.Params == 0 {
			continue
		}
		cur.Bytes += l.GradientBytes()
		cur.Layers = append(cur.Layers, i)
		if cur.Bytes >= maxBytes {
			buckets = append(buckets, cur)
			cur = Bucket{}
		}
	}
	if len(cur.Layers) > 0 {
		buckets = append(buckets, cur)
	}
	return buckets, nil
}

// TotalBytes sums the payloads of a bucket list.
func TotalBytes(buckets []Bucket) float64 {
	var b float64
	for _, bk := range buckets {
		b += bk.Bytes
	}
	return b
}
