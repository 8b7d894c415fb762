package resource

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"

	"repro/internal/predicate"
	"repro/internal/txn"
)

// This file defines the resource seed-file format: an XML description of
// pools and instances that operators load into a fresh resource manager
// (cmd/promised -seed-file). The property value syntax reuses the §3
// predicate literal forms: integers, quoted strings, true/false.
//
//	<resources>
//	  <pool id="pink-widgets" onhand="100">
//	    <prop name="price">250</prop>
//	  </pool>
//	  <instance id="room-512">
//	    <prop name="floor">5</prop>
//	    <prop name="view">true</prop>
//	    <prop name="beds">"king"</prop>
//	  </instance>
//	</resources>

// seedFile is the XML document root.
type seedFile struct {
	XMLName   xml.Name       `xml:"resources"`
	Pools     []seedPool     `xml:"pool"`
	Instances []seedInstance `xml:"instance"`
}

type seedPool struct {
	ID     string     `xml:"id,attr"`
	OnHand int64      `xml:"onhand,attr"`
	Props  []seedProp `xml:"prop"`
}

type seedInstance struct {
	ID    string     `xml:"id,attr"`
	Props []seedProp `xml:"prop"`
}

type seedProp struct {
	Name  string `xml:"name,attr"`
	Value string `xml:",chardata"`
}

// parseProps evaluates each property value as a constant predicate
// expression, accepting exactly the literal forms of §3's standard syntax.
func parseProps(props []seedProp) (map[string]predicate.Value, error) {
	if len(props) == 0 {
		return nil, nil
	}
	out := make(map[string]predicate.Value, len(props))
	for _, p := range props {
		expr, err := predicate.Parse(p.Value)
		if err != nil {
			return nil, fmt.Errorf("resource: property %q: %v", p.Name, err)
		}
		v, err := predicate.EvalValue(predicate.Fold(expr), predicate.MapEnv{})
		if err != nil {
			return nil, fmt.Errorf("resource: property %q is not a constant: %v", p.Name, err)
		}
		out[p.Name] = v
	}
	return out, nil
}

// SeedPool is one parsed pool entry of a seed file.
type SeedPool struct {
	ID     string
	OnHand int64
	Props  map[string]predicate.Value
}

// SeedInstance is one parsed instance entry of a seed file.
type SeedInstance struct {
	ID    string
	Props map[string]predicate.Value
}

// ParseSeed decodes a seed file without touching any store, so callers that
// stripe resources across multiple managers (the sharded promise manager)
// can route each entry to its owner.
func ParseSeed(r io.Reader) ([]SeedPool, []SeedInstance, error) {
	var doc seedFile
	if err := xml.NewDecoder(r).Decode(&doc); err != nil {
		return nil, nil, fmt.Errorf("resource: seed file: %v", err)
	}
	pools := make([]SeedPool, 0, len(doc.Pools))
	for _, p := range doc.Pools {
		props, err := parseProps(p.Props)
		if err != nil {
			return nil, nil, err
		}
		pools = append(pools, SeedPool{ID: p.ID, OnHand: p.OnHand, Props: props})
	}
	instances := make([]SeedInstance, 0, len(doc.Instances))
	for _, in := range doc.Instances {
		props, err := parseProps(in.Props)
		if err != nil {
			return nil, nil, err
		}
		instances = append(instances, SeedInstance{ID: in.ID, Props: props})
	}
	return pools, instances, nil
}

// LoadSeed reads a seed file and creates its pools and instances in m,
// inside one transaction: a malformed file leaves the manager untouched.
func (m *Manager) LoadSeed(r io.Reader) (pools, instances int, err error) {
	ps, ins, err := ParseSeed(r)
	if err != nil {
		return 0, 0, err
	}
	tx := m.store.Begin(txn.Block)
	defer func() {
		if err != nil && !tx.Done() {
			_ = tx.Abort()
		}
	}()
	for _, p := range ps {
		if err := m.CreatePool(tx, p.ID, p.OnHand, p.Props); err != nil {
			return 0, 0, err
		}
		pools++
	}
	for _, in := range ins {
		if err := m.CreateInstance(tx, in.ID, in.Props); err != nil {
			return 0, 0, err
		}
		instances++
	}
	if err := tx.Commit(); err != nil {
		return 0, 0, err
	}
	return pools, instances, nil
}

// DumpSeed writes the manager's current pools and instances as a seed
// file, so a deployment's resource state can be captured and re-seeded.
// Allocation state (promised/taken tags) is deliberately not serialised:
// a seed file describes resources, not in-flight promises. It reads the
// latest committed snapshot, so it never waits for or blocks a writer.
func (m *Manager) DumpSeed(w io.Writer) error {
	snap := m.store.Snapshot()
	pools, err := m.Pools(snap)
	if err != nil {
		return err
	}
	instances, err := m.Instances(snap)
	if err != nil {
		return err
	}
	var doc seedFile
	for _, p := range pools {
		doc.Pools = append(doc.Pools, seedPool{ID: p.ID, OnHand: p.OnHand, Props: dumpProps(p.Props)})
	}
	for _, in := range instances {
		doc.Instances = append(doc.Instances, seedInstance{ID: in.ID, Props: dumpProps(in.Props)})
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(&doc); err != nil {
		return err
	}
	return enc.Flush()
}

// dumpProps renders properties in the literal syntax parseProps accepts,
// in sorted order for deterministic output.
func dumpProps(props map[string]predicate.Value) []seedProp {
	if len(props) == 0 {
		return nil
	}
	names := make([]string, 0, len(props))
	for name := range props {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]seedProp, 0, len(names))
	for _, name := range names {
		out = append(out, seedProp{Name: name, Value: props[name].String()})
	}
	return out
}
