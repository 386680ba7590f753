package s3

import (
	"fmt"
	"io"

	"s3/internal/graph"
	"s3/internal/index"
)

// EncodeSpec serialises everything the builder has accumulated so far —
// users, social edges, documents, posts, comments, tags and ontology — as
// a self-contained binary specification. The spec can be stored, shipped,
// merged into other applications (R6 interoperability) and rebuilt with
// BuildFromSpec.
func (b *Builder) EncodeSpec(w io.Writer) error {
	spec := b.b.Spec()
	return spec.Encode(w)
}

// BuildFromSpec decodes a specification written by EncodeSpec and builds
// it into a queryable instance using the given text pipeline. The entire
// spec is re-validated during the build.
func BuildFromSpec(r io.Reader, lang Lang) (*Instance, error) {
	spec, err := graph.DecodeSpec(r)
	if err != nil {
		return nil, err
	}
	in, err := graph.BuildSpec(*spec, lang.analyzer())
	if err != nil {
		return nil, fmt.Errorf("s3: rebuilding spec: %w", err)
	}
	return newInstance(in, index.Build(in), nil, 1), nil
}
