// Per-run manifest: a small JSON record emitted beside every
// experiment's observability files that pins down exactly what
// produced them — experiment ID, scale, seed, parallelism, sampling
// period — plus an FNV-1a content hash of the rendered tables, so a
// stored timeline can always be matched to the table it explains.
package metrics

import (
	"encoding/json"
	"hash/fnv"
	"os"
	"path/filepath"
)

// ManifestFormat versions the manifest schema.
const ManifestFormat = 1

// Manifest describes one experiment's observability output.
//
// Parallelism is the only field allowed to differ between otherwise
// identical runs: every other field — and every data file the manifest
// points at — is a pure function of (experiment, scale, seed, period).
type Manifest struct {
	Format         int      `json:"format"`
	Experiment     string   `json:"experiment"`
	Scale          float64  `json:"scale"`
	Seed           uint64   `json:"seed"`
	Parallelism    int      `json:"parallelism"`
	SamplePeriodPs int64    `json:"sample_period_ps"`
	TableHash      string   `json:"table_hash"`
	Tables         []string `json:"tables"`
	Files          []string `json:"files"`
}

// Write renders the manifest as indented JSON at path (atomically).
func (m *Manifest) Write(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, append(data, '\n'))
}

// WriteFileAtomic writes data to path via a temp file and rename, so
// concurrent writers producing identical content (parallel runs of the
// same experiment) can never interleave into a torn file.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// HashStrings folds the given strings into one FNV-1a 64-bit hex
// digest (a NUL separates entries so boundaries count).
func HashStrings(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	const hex = "0123456789abcdef"
	sum := h.Sum64()
	var out [16]byte
	for i := 15; i >= 0; i-- {
		out[i] = hex[sum&0xf]
		sum >>= 4
	}
	return string(out[:])
}
