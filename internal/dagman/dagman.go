// Package dagman implements the directed-acyclic-graph job manager used by
// the CMS case study of §6.2 ("a two-node DAG of jobs ... the execution of
// these jobs is also controlled by a DAG") and cited in §7 as a Condor-G
// capability Nimrod lacks ("inter-job dependencies"). It parses the classic
// DAGMan description syntax, executes nodes through a caller-supplied
// submit function with throttling and per-node retries, and emits a rescue
// DAG when a run fails partway. It backs experiment E9
// (BenchmarkE9_CMSPipeline, examples/cms).
package dagman

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Node is one DAG vertex.
type Node struct {
	Name     string
	Spec     string // opaque payload handed to the submit function
	Parents  []string
	Children []string
	Retries  int
	Done     bool // pre-satisfied (from a rescue DAG)
	// Priority breaks ties among simultaneously-ready nodes (higher
	// first); equal priorities preserve file order.
	Priority int
	// PreScript runs before the node's job is submitted; a PRE failure
	// fails the attempt (retries cover the whole PRE→job→POST cycle).
	PreScript string
	// PostScript runs after the node's job finishes (even when the job
	// failed); when present, the POST result determines the node's
	// outcome — classic DAGMan semantics.
	PostScript string
}

// DAG is a parsed job graph.
type DAG struct {
	Nodes map[string]*Node
	Order []string // declaration order
}

// Parse reads the DAGMan description syntax:
//
//	JOB <name> <spec...> [DONE]
//	PARENT <p1> [p2...] CHILD <c1> [c2...]
//	RETRY <name> <n>
//	PRIORITY <name> <n>
//	SCRIPT PRE|POST <name> <script...>
//	# comments and blank lines ignored
func Parse(src string) (*DAG, error) {
	d := &DAG{Nodes: make(map[string]*Node)}
	for ln, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		keyword := strings.ToUpper(fields[0])
		switch keyword {
		case "JOB":
			if len(fields) < 3 {
				return nil, fmt.Errorf("dagman: line %d: JOB needs a name and spec", ln+1)
			}
			name := fields[1]
			if _, dup := d.Nodes[name]; dup {
				return nil, fmt.Errorf("dagman: line %d: duplicate node %q", ln+1, name)
			}
			specFields := fields[2:]
			done := false
			if strings.ToUpper(specFields[len(specFields)-1]) == "DONE" {
				done = true
				specFields = specFields[:len(specFields)-1]
			}
			if len(specFields) == 0 {
				return nil, fmt.Errorf("dagman: line %d: JOB %s has no spec", ln+1, name)
			}
			d.Nodes[name] = &Node{Name: name, Spec: strings.Join(specFields, " "), Done: done}
			d.Order = append(d.Order, name)
		case "PARENT":
			idx := -1
			for i, f := range fields {
				if strings.ToUpper(f) == "CHILD" {
					idx = i
					break
				}
			}
			if idx < 2 || idx == len(fields)-1 {
				return nil, fmt.Errorf("dagman: line %d: PARENT ... CHILD ... malformed", ln+1)
			}
			parents, children := fields[1:idx], fields[idx+1:]
			for _, p := range parents {
				pn, ok := d.Nodes[p]
				if !ok {
					return nil, fmt.Errorf("dagman: line %d: unknown parent %q", ln+1, p)
				}
				for _, c := range children {
					cn, ok := d.Nodes[c]
					if !ok {
						return nil, fmt.Errorf("dagman: line %d: unknown child %q", ln+1, c)
					}
					pn.Children = append(pn.Children, c)
					cn.Parents = append(cn.Parents, p)
				}
			}
		case "RETRY":
			if len(fields) != 3 {
				return nil, fmt.Errorf("dagman: line %d: RETRY <name> <n>", ln+1)
			}
			n, ok := d.Nodes[fields[1]]
			if !ok {
				return nil, fmt.Errorf("dagman: line %d: unknown node %q", ln+1, fields[1])
			}
			r, err := strconv.Atoi(fields[2])
			if err != nil || r < 0 {
				return nil, fmt.Errorf("dagman: line %d: bad retry count %q", ln+1, fields[2])
			}
			n.Retries = r
		case "SCRIPT":
			if len(fields) < 4 {
				return nil, fmt.Errorf("dagman: line %d: SCRIPT PRE|POST <name> <script>", ln+1)
			}
			kind := strings.ToUpper(fields[1])
			n, ok := d.Nodes[fields[2]]
			if !ok {
				return nil, fmt.Errorf("dagman: line %d: unknown node %q", ln+1, fields[2])
			}
			script := strings.Join(fields[3:], " ")
			switch kind {
			case "PRE":
				n.PreScript = script
			case "POST":
				n.PostScript = script
			default:
				return nil, fmt.Errorf("dagman: line %d: SCRIPT kind %q (want PRE or POST)", ln+1, fields[1])
			}
		case "PRIORITY":
			if len(fields) != 3 {
				return nil, fmt.Errorf("dagman: line %d: PRIORITY <name> <n>", ln+1)
			}
			n, ok := d.Nodes[fields[1]]
			if !ok {
				return nil, fmt.Errorf("dagman: line %d: unknown node %q", ln+1, fields[1])
			}
			p, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("dagman: line %d: bad priority %q", ln+1, fields[2])
			}
			n.Priority = p
		default:
			return nil, fmt.Errorf("dagman: line %d: unknown keyword %q", ln+1, fields[0])
		}
	}
	if err := d.checkAcyclic(); err != nil {
		return nil, err
	}
	return d, nil
}

// checkAcyclic rejects graphs with cycles.
func (d *DAG) checkAcyclic() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int, len(d.Nodes))
	var visit func(string) error
	visit = func(n string) error {
		switch color[n] {
		case gray:
			return fmt.Errorf("dagman: cycle involving %q", n)
		case black:
			return nil
		}
		color[n] = gray
		for _, c := range d.Nodes[n].Children {
			if err := visit(c); err != nil {
				return err
			}
		}
		color[n] = black
		return nil
	}
	for _, name := range d.Order {
		if err := visit(name); err != nil {
			return err
		}
	}
	return nil
}

// Roots returns nodes with no parents, in declaration order.
func (d *DAG) Roots() []string {
	var out []string
	for _, name := range d.Order {
		if len(d.Nodes[name].Parents) == 0 {
			out = append(out, name)
		}
	}
	return out
}

// String renders the DAG back into its description syntax (stable order).
func (d *DAG) String() string {
	var sb strings.Builder
	for _, name := range d.Order {
		n := d.Nodes[name]
		fmt.Fprintf(&sb, "JOB %s %s", n.Name, n.Spec)
		if n.Done {
			sb.WriteString(" DONE")
		}
		sb.WriteString("\n")
		if n.Retries > 0 {
			fmt.Fprintf(&sb, "RETRY %s %d\n", n.Name, n.Retries)
		}
		if n.Priority != 0 {
			fmt.Fprintf(&sb, "PRIORITY %s %d\n", n.Name, n.Priority)
		}
		if n.PreScript != "" {
			fmt.Fprintf(&sb, "SCRIPT PRE %s %s\n", n.Name, n.PreScript)
		}
		if n.PostScript != "" {
			fmt.Fprintf(&sb, "SCRIPT POST %s %s\n", n.Name, n.PostScript)
		}
	}
	for _, name := range d.Order {
		n := d.Nodes[name]
		if len(n.Children) > 0 {
			children := append([]string(nil), n.Children...)
			sort.Strings(children)
			fmt.Fprintf(&sb, "PARENT %s CHILD %s\n", n.Name, strings.Join(children, " "))
		}
	}
	return sb.String()
}
