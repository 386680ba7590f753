// Package doc implements the structured-document substrate of the S3 model
// (paper §2.3): unranked ordered trees of named nodes, each with a URI, a
// name and text content. A tree is plain data that Walk reads, deriving
// the Dewey URI of a node given none; pos(d, f), the vertical neighbours
// of Definition 2.2 and the rest of the tree algebra are answered by the
// graph instance a builder freezes the trees into.
//
// Documents can be built programmatically or parsed from XML / JSON
// (the two concrete syntaxes the paper mentions).
package doc

import (
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Node is one document node. A fragment of a document d is the subtree
// rooted at any node of d, identified by that node's URI.
type Node struct {
	// URI identifies the node (and the fragment it roots). If empty, Walk
	// derives a Dewey-style URI from the parent's: parent URI + "." +
	// (1-based child index), as in the paper's d0.3.2. The root must
	// have one: it identifies the document.
	URI string
	// Name is the node name (XML element name, JSON key, ...).
	Name string
	// Text is the raw text content of this node (not of its subtree).
	Text string
	// Keywords is the keyword set of the node's content. When nil, the
	// instance builder uses the keywords its text.Analyzer finds in Text,
	// and keeps them to itself: it writes nothing into the node.
	Keywords []string

	Children []*Node
}

// Walk visits the tree rooted at root in pre-order (document order), the
// order of Frag(root): each node with its URI, given or derived, and its
// depth, the number of edges from the root, which is |pos(root, n)|. It
// refuses a nil root, a root without a URI and a nil child, and stops at
// the first error visit returns. It writes nothing into the nodes.
func Walk(root *Node, visit func(n *Node, uri string, depth int) error) error {
	if root == nil {
		return fmt.Errorf("doc: nil root")
	}
	if root.URI == "" {
		return fmt.Errorf("doc: document root has no URI")
	}
	var walk func(n *Node, uri string, depth int) error
	walk = func(n *Node, uri string, depth int) error {
		if err := visit(n, uri, depth); err != nil {
			return err
		}
		for i, c := range n.Children {
			if c == nil {
				return fmt.Errorf("doc: nil child under %q", uri)
			}
			cu := c.URI
			if cu == "" {
				cu = uri + "." + strconv.Itoa(i+1)
			}
			if err := walk(c, cu, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(root, root.URI, 0)
}

// ParseXML parses an XML document into a tree. Element names become node
// names; character data becomes the containing node's text; attributes
// become child nodes named "@attr". The root node receives the given URI;
// every other node is left without one, for Walk to derive. Outside the
// root element only whitespace, comments, processing instructions, the
// prolog and a leading byte-order mark are allowed; any other text is
// refused.
func ParseXML(uri string, r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	var stack []*Node
	var root *Node
	for {
		start := dec.InputOffset()
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("doc: parsing XML for %q: %w", uri, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &Node{Name: t.Name.Local}
			for _, attr := range t.Attr {
				n.Children = append(n.Children, &Node{
					Name: "@" + attr.Name.Local,
					Text: attr.Value,
				})
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("doc: multiple roots in XML for %q", uri)
				}
				root = n
				n.URI = uri
			} else {
				top := stack[len(stack)-1]
				top.Children = append(top.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("doc: unbalanced XML for %q", uri)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			s := string(t)
			if start == 0 {
				s = strings.TrimPrefix(s, "\ufeff")
			}
			s = strings.TrimSpace(s)
			if s == "" {
				break
			}
			if len(stack) == 0 {
				return nil, fmt.Errorf("doc: text outside the root element in XML for %q", uri)
			}
			top := stack[len(stack)-1]
			if top.Text != "" {
				top.Text += " "
			}
			top.Text += s
		}
	}
	if root == nil {
		return nil, fmt.Errorf("doc: empty XML for %q", uri)
	}
	return root, nil
}

// ParseJSON parses one JSON value into a tree. Objects map each key to a
// child node named after the key (keys are visited in sorted order so the
// tree is deterministic); arrays map each element to a child named "item";
// scalars become text content. The root node, named "root", receives the
// given URI; every other node is left without one, for Walk to derive.
// Anything but whitespace after the value is refused.
func ParseJSON(uri string, r io.Reader) (*Node, error) {
	var v any
	dec := json.NewDecoder(r)
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("doc: parsing JSON for %q: %w", uri, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("doc: content after the JSON value for %q", uri)
	}
	root := &Node{URI: uri, Name: "root"}
	appendJSON(root, v)
	return root, nil
}

func appendJSON(n *Node, v any) {
	switch t := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			c := &Node{Name: k}
			appendJSON(c, t[k])
			n.Children = append(n.Children, c)
		}
	case []any:
		for _, e := range t {
			c := &Node{Name: "item"}
			appendJSON(c, e)
			n.Children = append(n.Children, c)
		}
	case string:
		n.Text = t
	case json.Number:
		n.Text = t.String()
	case bool:
		n.Text = strconv.FormatBool(t)
	case nil:
		// null: empty node
	}
}
