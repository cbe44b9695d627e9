package runstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
)

// Encode serializes v as canonical JSON: struct fields emitted in sorted
// name order, floats in shortest round-trip form, two-space indentation,
// and a trailing newline. Equal values always encode to equal bytes, which
// is the property fingerprints, content hashes, and the golden-diff gate
// rest on.
//
// The encoder rejects rather than tolerates non-canonical shapes: maps
// (iteration order), interfaces (dynamic types), pointers, channels,
// functions, and non-finite floats all return errors. A struct field of
// such a kind fails even when nil, and so does an empty slice of them, so
// a schema change that adds one fails every artifact encode and with it
// the package's round-trip tests. On the schema as it stands, Encode fails
// only on NaN/Inf series values, which would be measurement bugs.
func Encode(v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	// Top-level pointers are calling convention (Encode(&artifact)), not
	// schema shape: dereference them. Nested pointers stay rejected.
	for rv.Kind() == reflect.Pointer && !rv.IsNil() {
		rv = rv.Elem()
	}
	var buf bytes.Buffer
	if err := encodeValue(&buf, rv, ""); err != nil {
		return nil, err
	}
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// Decode parses artifact bytes (canonical or not - any valid JSON works)
// and validates the schema version.
func Decode(data []byte) (*Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("runstore: decoding artifact: %w", err)
	}
	if a.Schema != SchemaVersion {
		return nil, fmt.Errorf("runstore: artifact schema %d, this build reads %d", a.Schema, SchemaVersion)
	}
	return &a, nil
}

// Fingerprint returns the hex SHA-256 of a configuration's canonical
// encoding: the cache key and baseline identity of a run.
func Fingerprint(cfg Config) (string, error) {
	b, err := Encode(cfg)
	if err != nil {
		return "", fmt.Errorf("runstore: fingerprinting config: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// ContentHash returns the hex SHA-256 of encoded artifact bytes.
func ContentHash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func encodeValue(buf *bytes.Buffer, v reflect.Value, indent string) error {
	switch v.Kind() {
	case reflect.String:
		return encodeString(buf, v.String())
	case reflect.Bool:
		if v.Bool() {
			buf.WriteString("true")
		} else {
			buf.WriteString("false")
		}
		return nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		buf.WriteString(strconv.FormatInt(v.Int(), 10))
		return nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		buf.WriteString(strconv.FormatUint(v.Uint(), 10))
		return nil
	case reflect.Float32, reflect.Float64:
		return encodeFloat(buf, v.Float())
	case reflect.Slice, reflect.Array:
		return encodeSlice(buf, v, indent)
	case reflect.Struct:
		return encodeStruct(buf, v, indent)
	default:
		return fmt.Errorf("runstore: %s values are not canonically encodable", v.Kind())
	}
}

// encodeString reuses encoding/json's escaping so decoded strings survive
// a round trip byte-exactly.
func encodeString(buf *bytes.Buffer, s string) error {
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	buf.Write(b)
	return nil
}

// encodeFloat writes the shortest decimal that parses back to exactly the
// same float64 ('g', -1): a fixed, round-trip-exact formatting. Integral
// values gain a ".0" marker purely for stability - json.Unmarshal reads
// both forms into the same float64.
func encodeFloat(buf *bytes.Buffer, f float64) error {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("runstore: non-finite float %v has no canonical encoding", f)
	}
	s := strconv.FormatFloat(f, 'g', -1, 64)
	buf.WriteString(s)
	if !bytes.ContainsAny([]byte(s), ".eE") {
		buf.WriteString(".0")
	}
	return nil
}

func encodeSlice(buf *bytes.Buffer, v reflect.Value, indent string) error {
	n := v.Len()
	if n == 0 {
		// Encode and drop a zero element, so an empty slice of a
		// forbidden kind fails as a filled one would.
		if err := encodeValue(new(bytes.Buffer), reflect.Zero(v.Type().Elem()), indent); err != nil {
			return err
		}
		buf.WriteString("[]")
		return nil
	}
	inner := indent + "  "
	buf.WriteString("[\n")
	for i := 0; i < n; i++ {
		buf.WriteString(inner)
		if err := encodeValue(buf, v.Index(i), inner); err != nil {
			return err
		}
		if i < n-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString(indent)
	buf.WriteByte(']')
	return nil
}

func encodeStruct(buf *bytes.Buffer, v reflect.Value, indent string) error {
	t := v.Type()
	names := make([]string, 0, t.NumField())
	idx := make([]int, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			return fmt.Errorf("runstore: struct %s has unexported field %s; schema structs must be fully exported", t, f.Name)
		}
		names = append(names, f.Name)
		idx = append(idx, i)
	}
	sort.Sort(&fieldSorter{names: names, idx: idx})

	inner := indent + "  "
	buf.WriteString("{\n")
	for k, i := range idx {
		buf.WriteString(inner)
		if err := encodeString(buf, names[k]); err != nil {
			return err
		}
		buf.WriteString(": ")
		if err := encodeValue(buf, v.Field(i), inner); err != nil {
			return err
		}
		if k < len(idx)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString(indent)
	buf.WriteByte('}')
	return nil
}

// fieldSorter sorts field names and their indices together.
type fieldSorter struct {
	names []string
	idx   []int
}

func (s *fieldSorter) Len() int           { return len(s.names) }
func (s *fieldSorter) Less(i, j int) bool { return s.names[i] < s.names[j] }
func (s *fieldSorter) Swap(i, j int) {
	s.names[i], s.names[j] = s.names[j], s.names[i]
	s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
}
