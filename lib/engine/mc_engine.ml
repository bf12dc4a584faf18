include Engine_core
module Wire = Wire
module Serve = Serve
