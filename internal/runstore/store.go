package runstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ManifestName is the index file every store directory carries.
const ManifestName = "manifest.json"

// Dir is one artifact store directory: a set of artifact files plus a
// manifest indexing them. The zero value is unusable; call Open.
//
// Lookup structures are deliberately slices, not maps: a store holds tens
// of entries, and slices keep the manifest in a fixed order.
type Dir struct {
	Path     string
	manifest Manifest
}

// Open opens (creating if necessary) a store directory and loads its
// manifest. A directory without a manifest is treated as empty.
func Open(path string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	d := &Dir{Path: path, manifest: Manifest{Schema: SchemaVersion}}
	raw, err := os.ReadFile(filepath.Join(path, ManifestName))
	if os.IsNotExist(err) {
		return d, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	if err := json.Unmarshal(raw, &d.manifest); err != nil {
		return nil, fmt.Errorf("runstore: decoding %s: %w", ManifestName, err)
	}
	if d.manifest.Schema != SchemaVersion {
		return nil, fmt.Errorf("runstore: manifest schema %d, this build reads %d", d.manifest.Schema, SchemaVersion)
	}
	return d, nil
}

// Entries returns a copy of the manifest rows, sorted by ID then
// fingerprint.
func (d *Dir) Entries() []Entry {
	out := append([]Entry(nil), d.manifest.Entries...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// fileName derives the artifact file name for an ID/fingerprint pair. The
// fingerprint prefix keeps names stable, unique per config, and greppable.
func fileName(id, fingerprint string) string {
	short := fingerprint
	if len(short) > 12 {
		short = short[:12]
	}
	return fmt.Sprintf("%s-%s.json", sanitize(id), short)
}

func sanitize(id string) string {
	var b strings.Builder
	for _, r := range id {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' || r == '_' {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Put stores an artifact (overwriting any prior artifact of the same
// fingerprint), updates the manifest on disk, and returns the artifact
// path. wallMS is the wall-clock duration of the run that produced the
// artifact; pass 0 for replayed or cached results.
func (d *Dir) Put(a *Artifact, tool string, wallMS float64) (string, error) {
	data, err := Encode(a)
	if err != nil {
		return "", err
	}
	name := fileName(a.Config.ID, a.Fingerprint)
	path := filepath.Join(d.Path, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("runstore: %w", err)
	}

	entry := Entry{
		ID:          a.Config.ID,
		Fingerprint: a.Fingerprint,
		File:        name,
		ContentHash: ContentHash(data),
		Passed:      a.Passed(),
		WallMS:      wallMS,
		CreatedUnix: now(),
	}
	kept := d.manifest.Entries[:0]
	for _, e := range d.manifest.Entries {
		if e.Fingerprint != entry.Fingerprint || e.ID != entry.ID {
			kept = append(kept, e)
		}
	}
	d.manifest.Entries = append(kept, entry)
	d.manifest.Tool = tool
	sort.Slice(d.manifest.Entries, func(i, j int) bool {
		a, b := d.manifest.Entries[i], d.manifest.Entries[j]
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		return a.Fingerprint < b.Fingerprint
	})
	if err := d.writeManifest(); err != nil {
		return "", err
	}
	return path, nil
}

func (d *Dir) writeManifest() error {
	data, err := json.MarshalIndent(&d.manifest, "", "  ")
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(filepath.Join(d.Path, ManifestName), data, 0o644); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	return nil
}

// Lookup loads the artifact stored under a fingerprint, or ok=false when
// the store has none: the cache-hit probe.
func (d *Dir) Lookup(fingerprint string) (*Artifact, bool, error) {
	for _, e := range d.manifest.Entries {
		if e.Fingerprint == fingerprint {
			a, err := d.loadFile(e.File)
			if err != nil {
				return nil, false, err
			}
			return a, true, nil
		}
	}
	return nil, false, nil
}

// ByID loads the artifact stored under an experiment ID, or ok=false. When
// several fingerprints share an ID (stale baselines), the manifest-newest
// entry wins.
func (d *Dir) ByID(id string) (*Artifact, bool, error) {
	best := -1
	for i, e := range d.manifest.Entries {
		if e.ID != id {
			continue
		}
		if best < 0 || e.CreatedUnix > d.manifest.Entries[best].CreatedUnix {
			best = i
		}
	}
	if best < 0 {
		return nil, false, nil
	}
	a, err := d.loadFile(d.manifest.Entries[best].File)
	if err != nil {
		return nil, false, err
	}
	return a, true, nil
}

// LoadAll loads every artifact in the store, sorted by ID.
func (d *Dir) LoadAll() ([]*Artifact, error) {
	entries := d.Entries()
	out := make([]*Artifact, 0, len(entries))
	for _, e := range entries {
		a, err := d.loadFile(e.File)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

func (d *Dir) loadFile(name string) (*Artifact, error) {
	raw, err := os.ReadFile(filepath.Join(d.Path, name))
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	a, err := Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("runstore: %s: %w", name, err)
	}
	return a, nil
}
