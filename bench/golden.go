package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"stash/internal/report"
)

// goldenFile is the checked-in output of `characterize` at the default
// configuration (seed 1, 12 iterations).
const goldenFile = "experiments_output.txt"

// goldenHeader matches the per-experiment header characterize prints
// before an experiment's tables; its elapsed time is the only part of
// the file that differs between runs.
var goldenHeader = regexp.MustCompile(`^# .* \(([A-Za-z0-9-]+), simulated in [^)]*\)$`)

// loadGolden reads the checked-in suite output and returns each
// experiment's rendered tables by id: the file with every header line
// and the blank line after it removed, split at the headers.
func loadGolden(root string) (map[string]string, error) {
	data, err := os.ReadFile(filepath.Join(root, goldenFile))
	if err != nil {
		return nil, fmt.Errorf("read golden output: %w", err)
	}
	out := make(map[string]string)
	lines := strings.SplitAfter(string(data), "\n")
	id := ""
	var body strings.Builder
	flush := func() {
		if id != "" {
			out[id] = body.String()
		}
		body.Reset()
	}
	for i := 0; i < len(lines); i++ {
		m := goldenHeader.FindStringSubmatch(strings.TrimSuffix(lines[i], "\n"))
		if m == nil {
			body.WriteString(lines[i])
			continue
		}
		flush()
		id = m[1]
		if i+1 < len(lines) && lines[i+1] == "\n" {
			i++
		}
	}
	flush()
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no experiment headers", goldenFile)
	}
	return out, nil
}

// render is one experiment's output exactly as characterize prints it
// below the header: each table followed by a blank line.
func render(tables []*report.Table) string {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	return b.String()
}

// cells counts the data cells of an experiment's tables.
func cells(tables []*report.Table) int {
	n := 0
	for _, t := range tables {
		n += t.NumRows() * len(t.Columns)
	}
	return n
}

// digest is the hex SHA-256 of s.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// claimsHolding counts the HOLDS verdicts in the claims experiment's
// rendered output.
func claimsHolding(rendered string) int {
	n := 0
	for _, line := range strings.Split(rendered, "\n") {
		if strings.HasPrefix(line, "C") && strings.TrimSpace(line) != "" &&
			strings.HasSuffix(strings.TrimSpace(line), "HOLDS") {
			n++
		}
	}
	return n
}

// paperClaims is the number of §VIII claims the claims experiment
// re-verifies; every one must hold.
const paperClaims = 11
