package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	_ "embed"
	"errors"
	"io"
	"strings"
)

// The traced run attributes CPU-profile samples to the repository's
// layers by the Go package of the sampled leaf function (the innermost
// inlined frame). layers.tsv holds the package → layer table; a
// package it does not name is counted under "other", so the shares
// always sum to 100% and a new package is never silently dropped.

//go:embed layers.tsv
var layersTSV string

type layerRule struct{ prefix, layer string }

// layerRules parses layers.tsv (package prefix, tab, layer; # comments).
func layerRules() []layerRule {
	var rules []layerRule
	sc := bufio.NewScanner(strings.NewReader(layersTSV))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if pkg, layer, ok := strings.Cut(line, "\t"); ok {
			rules = append(rules, layerRule{strings.TrimSpace(pkg), strings.TrimSpace(layer)})
		}
	}
	return rules
}

// layerNames lists every layer the table names, plus "other".
func layerNames() []string {
	seen := map[string]bool{}
	var names []string
	for _, r := range layerRules() {
		if !seen[r.layer] {
			seen[r.layer] = true
			names = append(names, r.layer)
		}
	}
	return append(names, "other")
}

// pkgOf extracts the package path from a Go symbol name such as
// "vignat/internal/libvig.(*Map[go.shape.struct {...}]).Get".
func pkgOf(fn string) string {
	fn = strings.TrimPrefix(fn, "type:.eq.")
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if i := strings.IndexByte(fn[slash+1:], '.'); i >= 0 {
		return fn[:slash+1+i]
	}
	return fn
}

// layerOf maps a package to its layer by the longest matching prefix.
func layerOf(rules []layerRule, pkg string) string {
	best, layer := -1, "other"
	for _, r := range rules {
		if (pkg == r.prefix || strings.HasPrefix(pkg, r.prefix+"/")) && len(r.prefix) > best {
			best, layer = len(r.prefix), r.layer
		}
	}
	return layer
}

// selfShares decodes a (gzipped) pprof CPU profile and returns each
// layer's share of the samples, in percent. rename overrides the layer
// of a package (the daemon's main package is not the harness).
func selfShares(prof []byte, rename map[string]string) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{}  // function id → name index
		leaf    = map[uint64]uint64{} // location id → innermost function id
		samples = map[uint64]int64{}  // leaf location id → sample count
	)
	err = pbFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var loc uint64
			var count int64
			first, firstVal := true, true
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == 1 && b == nil && first:
					loc, first = v, false
				case num == 1 && b != nil && first:
					loc, _ = pbVarint(b)
					first = false
				case num == 2 && b == nil && firstVal:
					count, firstVal = int64(v), false
				case num == 2 && b != nil && firstVal:
					c, _ := pbVarint(b)
					count, firstVal = int64(c), false
				}
				return nil
			})
			samples[loc] += count
			return err
		case 4: // location
			var id, fn uint64
			haveLine := false
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !haveLine: // the first line is the innermost frame
					haveLine = true
					return pbFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			leaf[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	rules := layerRules()
	shares := map[string]float64{}
	for _, l := range layerNames() {
		shares[l] = 0
	}
	var total int64
	for loc, n := range samples {
		name := ""
		if ni, ok := funcs[leaf[loc]]; ok && ni >= 0 && int(ni) < len(strs) {
			name = strs[ni]
		}
		pkg := pkgOf(name)
		layer := layerOf(rules, pkg)
		if r, ok := rename[pkg]; ok {
			layer = r
		}
		shares[layer] += float64(n)
		total += n
	}
	if total == 0 {
		return nil, 0, errors.New("the profile holds no samples")
	}
	for l := range shares {
		shares[l] *= 100 / float64(total)
	}
	return shares, total, nil
}

// pbVarint decodes one protobuf varint.
func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbFields walks a protobuf message, calling fn with each field's
// number and either its varint value (b == nil) or its bytes.
func pbFields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := pbVarint(msg)
		if n == 0 {
			return errors.New("profile: bad varint")
		}
		msg = msg[n:]
		num, typ := int(key>>3), key&7
		switch typ {
		case 0:
			v, n := pbVarint(msg)
			if n == 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := pbVarint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return errors.New("profile: unknown wire type")
		}
	}
	return nil
}
